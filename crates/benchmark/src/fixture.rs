//! The corpus every read workload runs against, and the data directory
//! that holds it.
//!
//! The corpus is the `csn` dataset over all families at a fixed seed,
//! plus workflows of three to six PEs of one family. It is loaded into a
//! real server over TCP once per build directory (`RegisterBatch` chunks
//! of 256, a `Compact` near the end so a cold start reads a snapshot and
//! replays a WAL tail) and the resulting directory is cached; each
//! server start then gets its own copy.

use crate::child::{dir_bytes, ServerChild};
use csn::{family_catalogue, Dataset, DatasetConfig, PeEntry};
use laminar_server::protocol::{BatchItemWire, BatchOutcomeWire, PeSubmission};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Instant;

/// Seed of the corpus; workload seeds never touch it.
const CSN_SEED: u64 = 42;
const BATCH: usize = 256;

/// Corpus size. Rows are spread evenly over the families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    pub pes: usize,
    pub workflows: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        pes: 6_000,
        workflows: 300,
    };
    pub const SMOKE: Scale = Scale {
        pes: 300,
        workflows: 15,
    };
}

pub struct CorpusWorkflow {
    pub name: String,
    pub family: usize,
    /// Indices into `Corpus::dataset.entries`.
    pub members: Vec<usize>,
}

pub struct Corpus {
    pub dataset: Dataset,
    pub workflows: Vec<CorpusWorkflow>,
}

/// `sum_list` → `SumList`, as `csn` names its classes.
pub fn camel(key: &str) -> String {
    key.split('_')
        .map(|part| {
            let mut chars = part.chars();
            chars
                .next()
                .map(|c| c.to_uppercase().chain(chars).collect::<String>())
                .unwrap_or_default()
        })
        .collect()
}

/// Family of a PE or workflow the benchmark named: the camel-cased family
/// key is everything before the trailing `PE<n>` or `Wf<n>`.
pub fn family_of(name: &str) -> Option<usize> {
    // Looked up for every hit of every reply, on cores the server shares.
    static STEMS: OnceLock<HashMap<String, usize>> = OnceLock::new();
    let stems = STEMS.get_or_init(|| {
        family_catalogue()
            .iter()
            .enumerate()
            .map(|(i, f)| (camel(f.key), i))
            .collect()
    });
    let stem = name.trim_end_matches(|c: char| c.is_ascii_digit());
    let stem = stem
        .strip_suffix("PE")
        .or_else(|| stem.strip_suffix("Wf"))?;
    stems.get(stem).copied()
}

impl Corpus {
    pub fn generate(scale: Scale) -> Corpus {
        let families = family_catalogue().len();
        let dataset = Dataset::generate(DatasetConfig {
            families,
            variants_per_family: scale.pes.div_ceil(families),
            seed: CSN_SEED,
            ..DatasetConfig::default()
        });
        let mut by_family = vec![Vec::new(); families];
        for (i, e) in dataset.entries.iter().enumerate() {
            by_family[e.family].push(i);
        }
        let mut rng = StdRng::seed_from_u64(CSN_SEED ^ 0x77f);
        let workflows = (0..scale.workflows)
            .map(|n| {
                let family = n % families;
                let pool = &by_family[family];
                let members = (0..rng.gen_range(3..=6))
                    .map(|_| pool[rng.gen_range(0..pool.len())])
                    .collect();
                CorpusWorkflow {
                    name: format!("{}Wf{n}", camel(family_catalogue()[family].key)),
                    family,
                    members,
                }
            })
            .collect();
        Corpus { dataset, workflows }
    }

    pub fn entries(&self) -> &[PeEntry] {
        &self.dataset.entries
    }

    /// A workflow file: the member classes one after another.
    pub fn workflow_source(&self, wf: &CorpusWorkflow) -> String {
        wf.members
            .iter()
            .map(|&i| self.entries()[i].code.as_str())
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// A PE as the benchmark registers it, corpus and new ones alike: no
/// description, so the server writes one from the code, as the paper's
/// text-to-code protocol stores them.
pub fn submission(name: &str, code: &str) -> PeSubmission {
    PeSubmission {
        name: name.to_string(),
        code: code.to_string(),
        description: None,
    }
}

/// What loading the fixture cost, kept beside it so later runs in the
/// same build directory can report it without loading again.
#[derive(Debug, Clone, Copy, serde::Serialize, serde::Deserialize)]
pub struct LoadStats {
    pub load_s: f64,
    pub rows: u64,
    pub disk_bytes: u64,
}

/// Scratch space of the benchmark: `<target dir>/laminar-bench`.
pub fn work_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let target = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("benchmark binary is not inside a target directory")?;
    Ok(target.join("laminar-bench"))
}

/// A directory under `work_dir()/tmp` that is removed when dropped.
pub struct TempDir(pub PathBuf);

impl TempDir {
    pub fn new(label: &str) -> Result<TempDir, String> {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let tmp = work_dir()?.join("tmp");
        sweep_stale(&tmp);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = tmp.join(format!("{}-{label}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Remove what a benchmark that was killed left behind: directories whose
/// leading process id names no live process.
fn sweep_stale(tmp: &Path) {
    let Ok(entries) = std::fs::read_dir(tmp) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let pid = name.to_string_lossy();
        let pid = pid.split('-').next().unwrap_or("");
        if !Path::new("/proc").join(pid).exists() {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}

pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("cannot create {}: {e}", to.display()))?;
    let entries =
        std::fs::read_dir(from).map_err(|e| format!("cannot read {}: {e}", from.display()))?;
    for entry in entries.flatten() {
        let dest = to.join(entry.file_name());
        if entry.path().is_dir() {
            copy_dir(&entry.path(), &dest)?;
        } else {
            std::fs::copy(entry.path(), &dest)
                .map_err(|e| format!("cannot copy {}: {e}", entry.path().display()))?;
        }
    }
    Ok(())
}

/// The cached fixture directory for `scale`, loading it first if this
/// build directory has none.
pub fn ensure(corpus: &Corpus, scale: Scale) -> Result<(PathBuf, LoadStats), String> {
    let root = work_dir()?.join(format!("fixture-{}x{}", scale.pes, scale.workflows));
    let data = root.join("data");
    let stats_path = root.join("load.json");
    if let Ok(text) = std::fs::read_to_string(&stats_path) {
        if let Ok(stats) = serde_json::from_str(&text) {
            return Ok((data, stats));
        }
    }
    // A half-loaded directory (killed mid-load) has no stats file.
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&data).map_err(|e| format!("cannot create {}: {e}", data.display()))?;
    let stats = load(corpus, &data)?;
    let text = serde_json::to_string(&stats).map_err(|e| e.to_string())?;
    std::fs::write(&stats_path, text)
        .map_err(|e| format!("cannot write {}: {e}", stats_path.display()))?;
    Ok((data, stats))
}

fn load(corpus: &Corpus, data: &Path) -> Result<LoadStats, String> {
    let server = ServerChild::spawn(data)?;
    let client = server.session()?;
    let start = Instant::now();
    let entries = corpus.entries();
    // Compact with the last fortieth of the PEs and all workflows still
    // to come, so a start loads a snapshot and replays a WAL tail. The
    // tail (450 records at full scale) leaves more room below the
    // registry's 1024-record compaction threshold than ten seconds of
    // `mixed` write: a compaction of the full corpus stalls the server
    // for seconds, and whether one fell inside a run would decide the run.
    let compact_at = entries.len() - entries.len() / 40;
    let register = |items: Vec<BatchItemWire>| -> Result<(), String> {
        let outcomes = client
            .register_batch(items)
            .map_err(|e| format!("fixture batch failed: {e}"))?;
        for outcome in outcomes {
            if let BatchOutcomeWire::Failed { error, .. } = outcome {
                return Err(format!("fixture item rejected: {error}"));
            }
        }
        Ok(())
    };
    let pe_items = |range: &[PeEntry]| -> Vec<BatchItemWire> {
        range
            .iter()
            .map(|e| BatchItemWire::Pe(submission(&e.name, &e.code)))
            .collect()
    };
    for chunk in entries[..compact_at].chunks(BATCH) {
        register(pe_items(chunk))?;
    }
    client
        .compact()
        .map_err(|e| format!("fixture compact failed: {e}"))?;
    for chunk in entries[compact_at..].chunks(BATCH) {
        register(pe_items(chunk))?;
    }
    for chunk in corpus.workflows.chunks(BATCH) {
        let items = chunk
            .iter()
            .map(|wf| BatchItemWire::Workflow {
                name: wf.name.clone(),
                code: corpus.workflow_source(wf),
                description: None,
                pes: wf
                    .members
                    .iter()
                    .map(|&i| submission(&entries[i].name, &entries[i].code))
                    .collect(),
            })
            .collect();
        register(items)?;
    }
    let load_s = start.elapsed().as_secs_f64();
    drop(server);
    Ok(LoadStats {
        load_s,
        rows: (entries.len() + corpus.workflows.len()) as u64,
        disk_bytes: dir_bytes(data),
    })
}
