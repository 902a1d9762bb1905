//! # device — simulated Android device, apps, and servers
//!
//! The measurement *environment* of the QoE Doctor reproduction:
//!
//! * [`ui`] — the Android-style layout tree the controller parses, with the
//!   draw-delay model and the camera ground-truth log (Fig. 4's `t_ui` vs
//!   `t_screen`);
//! * [`phone`] — the handset: network stack + attachment (cell/WiFi) + UI +
//!   foreground app + tcpdump capture + CPU meter;
//! * [`apps`] — Facebook (WebView and ListView versions, local-echo posts,
//!   background refresh), YouTube (buffer-model player, pre-roll ads), and
//!   three browsers;
//! * [`servers`] — the internet hub: DNS, request/response origins, and the
//!   push server simulating friends' posts;
//! * [`rpc`] / [`proto`] — the application-layer request framing;
//! * [`world`] — the composed, runnable scenario.

#![warn(missing_docs)]

pub mod apps;
pub mod codec;
pub mod phone;
pub mod proto;
pub mod rpc;
pub mod servers;
pub mod ui;
pub mod world;

pub use phone::{App, AppCx, CpuMeter, NetAttachment, Phone, UiEvent};
pub use rpc::{Rpc, RpcState};
pub use servers::{
    FacebookOrigin, Internet, PushSchedule, PushServer, Routed, RpcServer, ServerApp, ServerNode,
};
pub use ui::{ScreenEvent, UiTree, View, ViewSignature};
pub use world::World;
