//! Collected experiment artifacts.
//!
//! At the end of a replay session the controller hands the offline analyzer
//! exactly what the real tool collects (§4.3): the AppBehaviorLog, the
//! packet trace, and the QxDM diagnostic log — plus two *evaluation-only*
//! ground truths the real tool obtains externally (the screen camera of
//! §7.1 and the true PDU coverage used to score the mapping of §5.4.2).

use crate::behavior::AppBehaviorLog;
use crate::controller::{Controller, Kernel};
use device::phone::NetAttachment;
use device::ui::ScreenEvent;
use device::CpuMeter;
use netstack::pcap::PacketRecord;
use radio::qxdm::QxdmLog;
use radio::rlc::PduEvent;
use simcore::{RecordLog, SimTime};

/// Everything an experiment run produced.
#[derive(Debug, PartialEq)]
pub struct Collection {
    /// The controller's behaviour log (measurement windows).
    pub behavior: AppBehaviorLog,
    /// The tcpdump-substitute packet trace.
    pub trace: RecordLog<PacketRecord>,
    /// QxDM diagnostic log — present only on cellular attachments.
    pub qxdm: Option<QxdmLog>,
    /// Ground-truth PDU stream (evaluation only): each PDU's QxDM record,
    /// including the records QxDM dropped, plus the packet bytes it carried.
    pub pdu_truth: Option<RecordLog<PduEvent>>,
    /// Ground-truth screen draw events (evaluation only; the paper's
    /// 60 fps camera).
    pub camera: RecordLog<ScreenEvent>,
    /// CPU accounting split between app and controller.
    pub cpu: CpuMeter,
    /// When collection stopped.
    pub end: SimTime,
}

impl<K: Kernel> Controller<K> {
    /// Stop the session and hand every artifact to the offline analyzers.
    pub fn collect(mut self) -> Collection {
        let end = self.now;
        let trace = self.world.phone.capture.take_trace();
        let camera = core::mem::take(&mut self.world.phone.ui.camera);
        let (qxdm, pdu_truth) = match &mut self.world.phone.net {
            NetAttachment::Cell(b) => {
                let (log, truth) = b.qxdm.take_logs();
                (Some(log), Some(truth))
            }
            NetAttachment::Wifi { .. } => (None, None),
        };
        Collection {
            behavior: self.log,
            trace,
            qxdm,
            pdu_truth,
            camera,
            cpu: self.world.phone.cpu,
            end,
        }
    }
}
