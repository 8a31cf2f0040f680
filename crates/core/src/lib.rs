//! `laminar-core` — the Laminar 2.0 facade (paper §III, Fig. 4).
//!
//! One call deploys the full stack — registry, search indexes, resource
//! cache, execution engine with its container pool and workflow library —
//! and hands back connected clients:
//!
//! ```
//! use laminar_core::Laminar;
//!
//! let laminar = Laminar::deploy(Default::default());
//! let mut client = laminar.client();
//! client.register("rosa", "secret").unwrap();
//! let reg = client
//!     .register_workflow("isprime_wf", laminar_core::ISPRIME_WORKFLOW_SOURCE)
//!     .unwrap();
//! let output = client.run_multiprocess(reg.workflow.1, 10, 9).unwrap();
//! assert!(output.ok);
//! ```
//!
//! The facade is what the examples, the CLI binary, the integration tests
//! and the evaluation harnesses all build on.

use embed::DescriptionContext;
use laminar_client::{Cli, LaminarClient};
use laminar_execengine::{ExecutionEngine, PoolConfig, WorkflowLibrary};
use laminar_registry::{FaultHook, PersistOptions, Registry, SyncPolicy};
use laminar_server::{LaminarServer, ServerConfig};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

pub use laminar_client::{ClientError, HealthReport, RegisteredWorkflow, RetryPolicy, RunOutput};
pub use laminar_registry::{
    FaultKind, FaultMode, FaultSpec, IoFaultInjector, IoSite, RegistryError,
};
pub use laminar_server::{
    Clock, ConnOptions, Connection, ConnectionError, EmbeddingType, Ident, MetricsSnapshot,
    NetClientTransport, NetServer, NetServerConfig, SearchScope, SharedClock, SimClock,
    StorageStateWire, SystemClock,
};

/// Deployment configuration.
#[derive(Debug, Clone)]
pub struct LaminarConfig {
    /// Container pool size.
    pub max_containers: usize,
    /// Simulated container cold-start latency.
    pub cold_start: Duration,
    /// Pre-warmed containers.
    pub prewarmed: usize,
    /// Load the stock paper workflows into the engine library.
    pub stock_workflows: bool,
    /// Description-generation context (Laminar 2.0 default: full class).
    pub description_context: DescriptionContext,
    /// Server search tunables.
    pub server: ServerConfig,
    /// Registry data directory (`--data-dir`). `None` keeps the registry
    /// purely in memory, exactly as before persistence existed.
    pub data_dir: Option<PathBuf>,
    /// Compact the WAL into a snapshot every this many records
    /// (`--snapshot-every`; 0 disables auto-compaction).
    pub snapshot_every: u64,
    /// fsync the WAL on every append (`--wal-fsync`): maximum durability,
    /// at a per-mutation latency cost.
    pub wal_fsync: bool,
    /// Deterministic disk-fault injection (`--io-fault-*`): when set, the
    /// registry's WAL and snapshot IO consult a seeded injector. Chaos
    /// testing only — never set in production deployments.
    pub io_fault: Option<FaultSpec>,
    /// Seed of the fault injector's deterministic RNG
    /// (`--io-fault-seed`): the same seed and spec produce bit-identical
    /// fault schedules.
    pub io_fault_seed: u64,
    /// The clock the server's timers run on. `None` deploys on the OS
    /// clock; the deterministic simulation harness injects a
    /// [`laminar_server::SimClock`] so probe timers and frame latency
    /// run under virtual time.
    pub clock: Option<laminar_server::SharedClock>,
}

impl Default for LaminarConfig {
    fn default() -> Self {
        LaminarConfig {
            max_containers: 8,
            cold_start: Duration::from_millis(5),
            prewarmed: 1,
            stock_workflows: true,
            description_context: DescriptionContext::FullClass,
            server: ServerConfig::default(),
            data_dir: None,
            snapshot_every: PersistOptions::default().snapshot_every,
            wal_fsync: false,
            io_fault: None,
            io_fault_seed: 1,
            clock: None,
        }
    }
}

/// A deployed Laminar 2.0 instance.
pub struct Laminar {
    server: Arc<LaminarServer>,
    /// Present when the deployment was configured with `io_fault`: the
    /// chaos harnesses use it to clear/re-arm the fault and read the
    /// injection journal.
    injector: Option<Arc<IoFaultInjector>>,
}

impl Laminar {
    /// Deploy the full stack. Panics when a configured data directory
    /// cannot be opened — use [`Laminar::try_deploy`] to handle that.
    pub fn deploy(config: LaminarConfig) -> Laminar {
        Self::try_deploy(config).unwrap_or_else(|e| panic!("laminar deployment failed: {e}"))
    }

    /// Deploy the full stack, surfacing registry-recovery failures (bad
    /// data directory, unreadable snapshot) instead of panicking.
    pub fn try_deploy(config: LaminarConfig) -> Result<Laminar, RegistryError> {
        let mut injector = None;
        let registry = match &config.data_dir {
            Some(dir) => {
                let opts = PersistOptions {
                    snapshot_every: config.snapshot_every,
                    sync: if config.wal_fsync {
                        SyncPolicy::EveryAppend
                    } else {
                        SyncPolicy::OsBuffered
                    },
                };
                match &config.io_fault {
                    Some(spec) => {
                        let inj = IoFaultInjector::new(config.io_fault_seed, spec.clone());
                        let hook: FaultHook = inj.clone();
                        injector = Some(inj);
                        Registry::open_with_faults(dir, opts, hook)?
                    }
                    None => Registry::open(dir, opts)?,
                }
            }
            None => Registry::new(),
        };
        let library = if config.stock_workflows {
            WorkflowLibrary::with_stock_workflows()
        } else {
            WorkflowLibrary::new()
        };
        let engine = ExecutionEngine::new(
            PoolConfig {
                max_containers: config.max_containers,
                cold_start: config.cold_start,
                prewarmed: config.prewarmed,
            },
            library,
        );
        let mut server = match &config.clock {
            Some(clock) => {
                LaminarServer::with_clock(registry, engine, config.server.clone(), clock.clone())
            }
            None => LaminarServer::new(registry, engine, config.server.clone()),
        };
        server.set_description_context(config.description_context);
        Ok(Laminar {
            server: Arc::new(server),
            injector,
        })
    }

    /// The underlying server (for direct protocol access / evaluation).
    pub fn server(&self) -> Arc<LaminarServer> {
        self.server.clone()
    }

    /// The configured IO fault injector, when the deployment set
    /// `io_fault` (chaos harnesses clear/re-arm it between phases).
    pub fn fault_injector(&self) -> Option<Arc<IoFaultInjector>> {
        self.injector.clone()
    }

    /// A client connected over the streaming (HTTP/2-style) transport.
    pub fn client(&self) -> LaminarClient {
        LaminarClient::connect(self.server.clone())
    }

    /// An interactive CLI bound to a fresh client.
    pub fn cli(&self) -> Cli {
        Cli::new(self.client())
    }

    /// Seed the registry with the stock workflows (isprime, anomaly,
    /// wordcount, doubler) under a `stock` user, so a fresh deployment can
    /// `run isprime_wf` immediately. The missing workflows go up as ONE
    /// `RegisterBatch` (v6): analysis is pipelined across them and the
    /// registry commits under a single WAL fsync. Idempotent — a registry
    /// recovered from `--data-dir` already holds the stock rows, so the
    /// `stock` user is logged into rather than re-registered and present
    /// workflows are skipped.
    pub fn seed_stock_registry(&self) -> Result<(), laminar_client::ClientError> {
        use laminar_server::protocol::{BatchItemWire, BatchOutcomeWire};
        let mut client = self.client();
        if client.register("stock", "stock").is_err() {
            client.login("stock", "stock")?;
        }
        let items: Vec<BatchItemWire> = [
            ("isprime_wf", ISPRIME_WORKFLOW_SOURCE),
            ("anomaly_wf", ANOMALY_WORKFLOW_SOURCE),
            ("wordcount_wf", WORDCOUNT_WORKFLOW_SOURCE),
            ("doubler_wf", DOUBLER_WORKFLOW_SOURCE),
        ]
        .into_iter()
        .filter(|(name, _)| client.get_workflow(*name).is_err())
        .map(|(name, source)| BatchItemWire::Workflow {
            name: name.to_string(),
            code: source.to_string(),
            description: None,
            pes: laminar_client::extract_pes_from_source(source),
        })
        .collect();
        if items.is_empty() {
            return Ok(());
        }
        for outcome in client.register_batch(items)? {
            if let BatchOutcomeWire::Failed { error, .. } = outcome {
                return Err(laminar_client::ClientError::Server(error));
            }
        }
        Ok(())
    }
}

/// Word-count workflow source (the Fig. 7 registry content).
pub const WORDCOUNT_WORKFLOW_SOURCE: &str = "\
from dispel4py.base import IterativePE, ProducerPE, ConsumerPE

class Sentences(ProducerPE):
    \"\"\"Produces sentences of text for the word counting pipeline.\"\"\"
    def _process(self, inputs):
        return 'stream processing with laminar'

class Splitter(IterativePE):
    \"\"\"Splits a sentence into its words.\"\"\"
    def _process(self, sentence):
        for word in sentence.split():
            self.write('output', {'word': word})

class WordCounter(IterativePE):
    \"\"\"Counts the words of the stream, emitting running counts per word.\"\"\"
    def _process(self, record):
        word = record['word']
        self.counts[word] = self.counts.get(word, 0) + 1
        return '{} {}'.format(word, self.counts[word])

class PrintCount(ConsumerPE):
    \"\"\"Prints each word count line.\"\"\"
    def _process(self, line):
        print(line)
";

/// Doubler workflow source (the quickstart pipeline).
pub const DOUBLER_WORKFLOW_SOURCE: &str = "\
from dispel4py.base import IterativePE, ProducerPE, ConsumerPE

class Numbers(ProducerPE):
    \"\"\"Produces consecutive integers.\"\"\"
    def _process(self, inputs):
        return self.counter

class Double(IterativePE):
    \"\"\"Doubles every number of the stream.\"\"\"
    def _process(self, num):
        return num * 2

class Print(ConsumerPE):
    \"\"\"Prints each doubled number.\"\"\"
    def _process(self, num):
        print('got {}'.format(num))
";

/// The paper's Listing 1 / Fig. 5 workflow source, used by examples and
/// docs (the Python twin of `d4py::workflows::isprime_graph`).
pub const ISPRIME_WORKFLOW_SOURCE: &str = "\
import random
from dispel4py.base import IterativePE, ProducerPE, ConsumerPE
from dispel4py.workflow_graph import WorkflowGraph

class NumberProducer(ProducerPE):
    def _process(self, inputs):
        return random.randint(1, 1000)

class IsPrime(IterativePE):
    \"\"\"Checks whether a given number is prime and returns the number if it is.\"\"\"
    def _process(self, num):
        if all(num % i != 0 for i in range(2, num)):
            return num

class PrintPrime(ConsumerPE):
    def _process(self, num):
        print('the num {} is prime'.format(num))

producer = NumberProducer()
isprime = IsPrime()
printer = PrintPrime()
graph = WorkflowGraph()
graph.connect(producer, 'output', isprime, 'input')
graph.connect(isprime, 'output', printer, 'input')
";

/// The Fig. 8 registry content: anomaly-pipeline workflow source.
pub const ANOMALY_WORKFLOW_SOURCE: &str = "\
from dispel4py.base import IterativePE, ProducerPE, ConsumerPE

class SensorReadings(ProducerPE):
    \"\"\"Produces temperature records from the sensor array.\"\"\"
    def _process(self, inputs):
        return {'sensor': 's1', 'kelvin': 293.0}

class NormalizeDataPE(IterativePE):
    \"\"\"This pe normalizes the temperature of a record to celsius.\"\"\"
    def _process(self, record):
        record['celsius'] = record['kelvin'] - 273.15
        return record

class AnomalyDetectionPE(IterativePE):
    \"\"\"Anomaly detection PE: detects anomalies in records whose temperature deviates from the mean.\"\"\"
    def _process(self, record):
        if abs(record['celsius'] - self.mean) > self.threshold:
            return record

class AlertingPE(ConsumerPE):
    \"\"\"AlertingPE class: raises an alert for each anomalous record.\"\"\"
    def _process(self, record):
        print('ALERT anomaly detected: {}'.format(record))
";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deploy_and_run_end_to_end() {
        let laminar = Laminar::deploy(LaminarConfig::default());
        let mut client = laminar.client();
        client.register("rosa", "pw").unwrap();
        let reg = client
            .register_workflow("isprime_wf", ISPRIME_WORKFLOW_SOURCE)
            .unwrap();
        assert_eq!(reg.pes.len(), 3);
        let out = client.run(reg.workflow.1, 10).unwrap();
        assert!(out.ok);
        for l in &out.lines {
            assert!(l.contains("is prime"));
        }
    }

    #[test]
    fn docstrings_flow_into_descriptions_and_search() {
        let laminar = Laminar::deploy(LaminarConfig::default());
        let mut client = laminar.client();
        client.register("rosa", "pw").unwrap();
        client
            .register_workflow("anomaly_wf", ANOMALY_WORKFLOW_SOURCE)
            .unwrap();
        // Fig. 8's query must rank the anomaly PE first now that the
        // docstring carries domain vocabulary.
        let hits = client
            .search_registry_semantic(SearchScope::Pe, "a pe that is able to detect anomalies")
            .unwrap();
        assert_eq!(hits[0].name, "AnomalyDetectionPE", "{hits:?}");
    }

    #[test]
    fn non_stock_deployment_cannot_run_but_can_search() {
        let laminar = Laminar::deploy(LaminarConfig {
            stock_workflows: false,
            ..LaminarConfig::default()
        });
        let mut client = laminar.client();
        client.register("u", "p").unwrap();
        let reg = client
            .register_workflow("isprime_wf", ISPRIME_WORKFLOW_SOURCE)
            .unwrap();
        // Search works (registry-backed)…
        let hits = client
            .search_registry_semantic(SearchScope::Pe, "prime numbers")
            .unwrap();
        assert!(!hits.is_empty());
        // …but running fails: no runnable twin in the engine library.
        assert!(client.run(reg.workflow.1, 3).is_err());
    }

    #[test]
    fn durable_deploy_survives_restart_and_reseeds_idempotently() {
        let dir = std::env::temp_dir().join(format!("laminar-core-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = LaminarConfig {
            data_dir: Some(dir.clone()),
            ..LaminarConfig::default()
        };
        {
            let laminar = Laminar::deploy(config.clone());
            laminar.seed_stock_registry().unwrap();
            let mut client = laminar.client();
            client.login("stock", "stock").unwrap();
            assert!(client.run("isprime_wf", 3).unwrap().ok);
        }
        // "Restart": a fresh deployment over the same data directory
        // recovers the rows; re-seeding is a no-op rather than a panic.
        let laminar = Laminar::deploy(config);
        laminar.seed_stock_registry().unwrap();
        let mut client = laminar.client();
        client.login("stock", "stock").unwrap();
        let (pes, wfs) = client.get_registry().unwrap();
        assert_eq!(wfs.len(), 4, "{wfs:?}");
        assert!(!pes.is_empty());
        assert!(client.run("isprime_wf", 3).unwrap().ok);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn seeding_sends_one_batch() {
        let laminar = Laminar::deploy(LaminarConfig::default());
        laminar.seed_stock_registry().unwrap();
        let mut client = laminar.client();
        client.login("stock", "stock").unwrap();
        let snap = client.metrics().unwrap();
        assert_eq!(snap.ingest.batches, 1, "{:?}", snap.ingest);
        assert_eq!(snap.ingest.items, 4);
        let (pes, wfs) = client.get_registry().unwrap();
        assert_eq!(wfs.len(), 4, "{wfs:?}");
        assert_eq!(pes.len(), 14, "{pes:?}");
        // Re-seeding is a no-op: every workflow present, no second batch.
        laminar.seed_stock_registry().unwrap();
        assert_eq!(client.metrics().unwrap().ingest.batches, 1);
    }

    #[test]
    fn cli_binding_works() {
        let laminar = Laminar::deploy(LaminarConfig::default());
        let mut cli = laminar.cli();
        cli.client().register("u", "p").unwrap();
        let out = cli.execute("help");
        assert!(out.contains("register_workflow"));
    }

    #[test]
    fn prewarmed_pool_avoids_first_cold_start() {
        let laminar = Laminar::deploy(LaminarConfig {
            prewarmed: 2,
            ..LaminarConfig::default()
        });
        let mut client = laminar.client();
        client.register("u", "p").unwrap();
        client
            .register_workflow("isprime_wf", ISPRIME_WORKFLOW_SOURCE)
            .unwrap();
        let out = client.run("isprime_wf", 2).unwrap();
        assert!(out.ok);
        assert!(
            out.infos.iter().any(|i| i.contains("warm")),
            "{:?}",
            out.infos
        );
    }
}
