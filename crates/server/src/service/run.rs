//! The execution service: workflow runs (§IV-E) — resolve, record the
//! history row, start the engine with the reply stream as its frame
//! consumer — with the resource cache's upload endpoint (§IV-F) and the
//! execution history.

use crate::obs::EnactmentMetrics;
use crate::protocol::{
    ExecutionInfo, FaultPolicyWire, Ident, Reply, ResourceRefWire, Response, RunInputWire, RunMode,
    WireFrame,
};
use crate::server::{InFlight, LaminarServer, ServerError};
use laminar_execengine::{ExecRequest, Frame, ResponseMode};
use laminar_registry::{ExecutionStatus, RegistryError};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex, PoisonError};

/// What a run request asks for, whichever endpoint carried it.
pub(crate) struct RunSpec {
    pub(crate) ident: Ident,
    pub(crate) input: RunInputWire,
    pub(crate) mode: RunMode,
    pub(crate) streaming: bool,
    pub(crate) verbose: bool,
    pub(crate) fault: FaultPolicyWire,
    pub(crate) task_timeout_ms: Option<u64>,
}

/// A streamed run's reply until it settles: the stream's sender, the
/// lines sent so far, each followed by a newline (the history's
/// response), and the request's accounting.
struct OpenStream {
    tx: Sender<WireFrame>,
    history: String,
    scope: Arc<InFlight>,
}

impl LaminarServer {
    /// `Run`: answer from the resource cache, asking for the files it lacks
    /// (§IV-F), then start the run.
    pub(crate) fn run(
        &self,
        user: u64,
        spec: RunSpec,
        resources: &[ResourceRefWire],
        scope: &Arc<InFlight>,
    ) -> Result<Reply, ServerError> {
        let missing = self.resources.missing(resources);
        if !missing.is_empty() {
            return Ok(Reply::Value(Response::NeedResources(missing)));
        }
        self.start_run(user, spec, scope.clone())
    }

    /// `RunWithInlineResources`, the Laminar 1.0 baseline: every byte
    /// re-transmitted with every run.
    pub(crate) fn run_with_inline_resources(
        &self,
        user: u64,
        spec: RunSpec,
        resources: &[(String, Vec<u8>)],
        scope: &Arc<InFlight>,
    ) -> Result<Reply, ServerError> {
        self.resources.receive_inline(resources);
        self.start_run(user, spec, scope.clone())
    }

    fn start_run(
        &self,
        user: u64,
        spec: RunSpec,
        scope: Arc<InFlight>,
    ) -> Result<Reply, ServerError> {
        let RunSpec {
            ident,
            input,
            mode,
            streaming,
            verbose,
            fault,
            task_timeout_ms,
        } = spec;
        let wf = self.resolve_workflow(&ident)?;
        let mapping = match mode {
            RunMode::Sequential => d4py::Mapping::Simple,
            RunMode::Multiprocess { processes } => d4py::Mapping::Multi { processes },
            RunMode::Dynamic => d4py::Mapping::Dynamic(d4py::DynamicConfig::default()),
        };
        let mapping_name = match &mapping {
            d4py::Mapping::Simple => "simple",
            d4py::Mapping::Multi { .. } => "multi",
            d4py::Mapping::Dynamic(_) => "dynamic",
        };
        let run_input: d4py::RunInput = input.clone().into();
        // Execution-history rows are best-effort under degraded storage:
        // a run still executes when the WAL cannot take the row — it just
        // leaves no history. The persist error itself flips health to
        // degraded so operators see it.
        let exec_id =
            match self
                .registry
                .add_execution(wf.id, user, mapping_name, &format!("{input:?}"))
            {
                Ok(id) => Some(id),
                Err(RegistryError::Persistence(msg)) => {
                    self.health.record_persist_error(&msg);
                    None
                }
                Err(e) => return Err(e.into()),
            };
        let registry = self.registry.clone();
        let health = self.health.clone();
        let finish = move |status: ExecutionStatus, history: &str| {
            let Some(exec_id) = exec_id else { return };
            // The lines joined by newlines: the last one's is dropped.
            let response = history.strip_suffix('\n').unwrap_or(history);
            if let Err(RegistryError::Persistence(msg)) =
                registry.finish_execution(exec_id, response, status)
            {
                health.record_persist_error(&msg);
            }
        };

        let (tx, rx) = mpsc::channel::<WireFrame>();
        let _ = tx.send(WireFrame::Begin {
            request_id: scope.id.0,
        });
        let open = Mutex::new(Some(OpenStream {
            tx,
            history: String::new(),
            scope,
        }));
        let metrics = self.metrics.clone();
        let request = ExecRequest {
            workflow: wf.name.clone(),
            code: wf.code.clone(),
            input: run_input,
            mapping,
            mode: if streaming {
                ResponseMode::Streaming
            } else {
                ResponseMode::Batch
            },
            verbose,
            options: d4py::RunOptions {
                fault_policy: fault.into(),
                task_timeout: task_timeout_ms.map(std::time::Duration::from_millis),
            },
        };
        // The engine's frames go straight onto the reply. The stream
        // settles once — on the terminal frame, or on the first send the
        // consumer is no longer there for — and ignores what comes after.
        self.engine.execute_into(request, move |frame| {
            let enactment = &metrics.groups.enactment;
            let mut guard = open.lock().unwrap_or_else(PoisonError::into_inner);
            let Some(stream) = guard.as_mut() else { return };
            let (wire, status) = match frame {
                Frame::Info(i) => (WireFrame::Info(i), None),
                Frame::Line(l) => {
                    // Appended and sent under one lock: the history's
                    // line order is the wire order.
                    stream.history.push_str(&l);
                    stream.history.push('\n');
                    (WireFrame::Line(l), None)
                }
                Frame::Summary(s) => (WireFrame::Summary(s), None),
                Frame::DeadLetter(d) => (WireFrame::DeadLetter(d), None),
                Frame::Faults(s) => {
                    observe_faults(enactment, &s);
                    (WireFrame::Faults(s), None)
                }
                Frame::End { duration } => (
                    WireFrame::End {
                        ok: true,
                        millis: duration.as_millis() as u64,
                    },
                    Some(ExecutionStatus::Completed),
                ),
                Frame::Error(e) => (
                    WireFrame::Value(Response::Error(e.to_string())),
                    Some(ExecutionStatus::Failed),
                ),
            };
            let Some(status) = status else {
                if stream.tx.send(wire).is_ok() {
                    return;
                }
                // The consumer disconnected mid-stream: record the aborted
                // execution. The enactment is not stopped; it goes on to
                // completion, its frames going nowhere.
                let stream = guard.take().expect("the stream is open");
                drop(guard);
                stream.scope.fail();
                finish(ExecutionStatus::Failed, &stream.history);
                return;
            };
            let stream = guard.take().expect("the stream is open");
            drop(guard);
            // Persist the outcome and settle the accounting BEFORE sending
            // the terminal frame: once the client observes it, the
            // registry must already reflect the acknowledged run — or a
            // crash straight after the stream drains loses rows the client
            // was told about — and the endpoint's gauge must already be
            // back down.
            enactment.runs.inc();
            if status == ExecutionStatus::Failed {
                enactment.runs_failed.inc();
                stream.scope.fail();
            }
            finish(status, &stream.history);
            drop(stream.scope);
            let _ = stream.tx.send(wire);
        });
        Ok(Reply::Stream(rx))
    }

    /// `GetExecutions`: a workflow's run history, each row with the first
    /// line of its recorded output.
    pub(crate) fn executions(&self, ident: &Ident) -> Result<Response, ServerError> {
        let wf = self.resolve_workflow(ident)?;
        let rows = self
            .registry
            .execution_history(wf.id)
            .into_iter()
            .map(|(e, preview)| ExecutionInfo {
                id: e.id,
                mapping: e.mapping,
                input: e.input,
                status: format!("{:?}", e.status),
                output_preview: preview.unwrap_or_default(),
            })
            .collect();
        Ok(Response::Executions(rows))
    }

    /// `UploadResource`: store one file in the resource cache.
    pub(crate) fn upload_resource(&self, name: String, bytes: Vec<u8>) -> Response {
        let deduplicated = self.resources.store(&name, bytes);
        Response::ResourceStored { name, deduplicated }
    }
}

/// Fold one run's fault counters into the enactment row group.
fn observe_faults(enactment: &EnactmentMetrics, stats: &d4py::FaultStats) {
    enactment.pe_faults.add(stats.faults);
    enactment.retries.add(stats.retries);
    enactment.dead_letters.add(stats.dead_letters);
    enactment.task_timeouts.add(stats.task_timeouts);
    enactment.worker_replacements.add(stats.worker_replacements);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_stats_fold_into_the_enactment_row_group() {
        let enactment = EnactmentMetrics::default();
        let stats = d4py::FaultStats {
            faults: 5,
            retries: 3,
            dead_letters: 2,
            task_timeouts: 1,
            worker_replacements: 1,
        };
        observe_faults(&enactment, &stats);
        observe_faults(&enactment, &stats);
        assert_eq!(
            [
                enactment.pe_faults.get(),
                enactment.retries.get(),
                enactment.dead_letters.get(),
                enactment.task_timeouts.get(),
                enactment.worker_replacements.get(),
            ],
            [10, 6, 4, 2, 2]
        );
    }
}
