//! # radio — cellular radio link layer simulation
//!
//! The 3G/LTE substrate under the QoE Doctor reproduction:
//!
//! * [`rrc`] — RRC state machines (3G DCH/FACH/PCH, LTE CONNECTED/IDLE with
//!   DRX), with promotion delays and demotion timers as configuration so
//!   carrier variants and §7.7's simplified machine are configs, not forks;
//! * [`rlc`] — the RLC data plane: PDU segmentation (fixed 40-byte 3G uplink
//!   payloads, flexible elsewhere), Length Indicators, concatenation, and
//!   ARQ with piggybacked polling and STATUS feedback;
//! * [`qxdm`] — the QxDM-substitute diagnostic logger, reproducing the
//!   2-byte payload truncation and record loss the paper's long-jump mapping
//!   algorithm works around;
//! * [`power`] — the per-RRC-state power model and tail/non-tail energy
//!   accounting (Monsoon substitute);
//! * [`bearer`] — the composed cellular attachment, including the carrier's
//!   token-bucket throttle and the core-network path.

#![warn(missing_docs)]

pub mod bearer;
pub mod codec;
pub mod power;
pub mod qxdm;
pub mod rlc;
pub mod rrc;

pub use bearer::{BearerConfig, CellBearer};
pub use power::{EnergyBreakdown, PowerModel};
pub use qxdm::{PduRecord, Qxdm, QxdmConfig, QxdmLog, StatusRecord};
pub use rlc::{PduEvent, RlcChannel, RlcConfig};
pub use rrc::{
    RadioTech, Rrc3gConfig, RrcConfig, RrcLteConfig, RrcMachine, RrcState, RrcTransition,
};
