//! # qoe-doctor — automated UI control and cross-layer QoE analysis
//!
//! Reproduction of *QoE Doctor: Diagnosing Mobile App QoE with Automated UI
//! Control and Cross-layer Analysis* (Chen et al., IMC 2014): a tool that
//! replays QoE-related user behaviour on (simulated) Android apps with a
//! [`Controller`], measures user-perceived latency directly from UI layout
//! tree changes, and diagnoses root causes with a multi-layer analyzer
//! spanning the application, transport/network, and RRC/RLC layers.
//!
//! ```
//! use device::apps::{BrowserApp, BrowserConfig};
//! use device::{Internet, NetAttachment, Phone, RpcServer, World};
//! use netstack::dns::DNS_PORT;
//! use netstack::{IpAddr, SocketAddr};
//! use qoe_doctor::{replay, Controller};
//! use simcore::{DetRng, SimDuration};
//!
//! // Assemble: a phone on WiFi running Chrome, and a web server.
//! let mut rng = DetRng::seed_from_u64(1);
//! let resolver = SocketAddr::new(IpAddr::new(8, 8, 8, 8), DNS_PORT);
//! let mut internet = Internet::new(resolver, rng.fork(1));
//! internet.add_server("www.example.com", IpAddr::new(93, 184, 0, 1),
//!                     Box::new(RpcServer::new(&[80])));
//! let phone = Phone::new(
//!     IpAddr::new(10, 0, 0, 1), resolver,
//!     NetAttachment::wifi(&mut rng),
//!     Box::new(BrowserApp::new(BrowserConfig::chrome())),
//!     rng.fork(2));
//!
//! // Replay: type a URL, press ENTER, measure until the page shows.
//! let mut doctor = Controller::new(World::new(phone, internet));
//! doctor.advance(SimDuration::from_secs(1));
//! let url = "http://www.example.com/";
//! doctor.interact(&replay::type_url(url));
//! let rec = replay::load_page(&mut doctor, url, SimDuration::from_secs(60));
//! assert!(!rec.timed_out);
//! assert!(rec.calibrated() > SimDuration::ZERO);
//! ```

#![warn(missing_docs)]

pub mod analyze;
pub mod behavior;
pub mod bundle;
pub mod collect;
pub mod controller;
pub mod diagnose;
pub mod replay;

pub use analyze::app::PlaybackReport;
pub use behavior::{AppBehaviorLog, BehaviorRecord, StartKind};
pub use bundle::CollectionSet;
pub use collect::Collection;
pub use controller::{Calendar, ControlError, Controller, Kernel, WaitCondition};
pub use diagnose::{diagnose_worst, Diagnoser, Diagnosis};
