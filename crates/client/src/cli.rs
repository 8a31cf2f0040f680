//! The Laminar CLI (paper §IV-B, Fig. 5).
//!
//! A transcript-testable command interpreter: [`Cli::execute`] takes one
//! input line and returns the text the terminal would print. The `laminar`
//! binary (in `laminar-core`) wraps it in a stdin loop and exits with
//! [`Cli::exit_code`], so scripted sessions (`laminar < script`) fail
//! loudly when any command errored.
//!
//! Every verb is one row of `COMMANDS`: its name, help line, usage
//! text and handler. `help` lists the rows, `help <verb>` prints one, and
//! [`Cli::execute`] runs the row a line names, so a verb cannot be listed
//! without being dispatched or the other way round.

use crate::client::{ClientError, LaminarClient};
use laminar_server::protocol::{BatchItemWire, BatchOutcomeWire};
use laminar_server::{EmbeddingType, Ident, SearchScope};
use std::fmt::Write as _;
use std::path::Path;

/// The interactive CLI.
pub struct Cli {
    client: LaminarClient,
    /// Set when the user asked to quit.
    pub done: bool,
    /// Whether the most recently executed command failed.
    last_failed: bool,
    /// Whether any command of the session failed (drives the process
    /// exit status of the `laminar` binary).
    any_failed: bool,
}

/// What a verb runs, given the arguments after it.
type Handler = fn(&mut Cli, &[String]) -> Result<String, ClientError>;

/// Every verb as `(verb, help, usage, handler)`, alphabetical: the order
/// `help` lists them in. `help <verb>` prints the help line followed by
/// the usage text.
static COMMANDS: &[(&str, &str, &str, Handler)] = &[
    (
        "code_completion",
        "Completes a partially typed PE from the most structurally similar registered PE.",
        "",
        |c, args| c.code_completion(args),
    ),
    (
        "code_recommendation",
        "Provides code recommendations from registered workflows and processing elements matching the code snippet.",
        "\nUsage:\n  code_recommendation [workflow|pe] [code_snippet] [--embedding_type llm|spt] [--top N]",
        |c, args| c.code_recommendation(args),
    ),
    (
        "compact",
        "Folds the registry's write-ahead log into an atomic snapshot (requires a server started with --data-dir).",
        "",
        |c, _| {
            c.client.compact().map(|r| {
                format!(
                    "Compacted: {} WAL records ({} bytes) folded into a {}-byte snapshot.",
                    r.wal_records, r.wal_bytes, r.snapshot_bytes
                )
            })
        },
    ),
    (
        "describe",
        "Prints the description and source of a PE or workflow.",
        "",
        |c, args| c.describe(args),
    ),
    (
        "health",
        "Prints the server's liveness/readiness and storage health; exits nonzero when the server is not ready (degraded storage).",
        "\nUsage:\n  health\n\nExit status is nonzero when the server is degraded, so the verb can\nback a container healthcheck directly.",
        |c, _| c.health(),
    ),
    (
        "help",
        "Lists commands, or shows help for one command.",
        "",
        |_, args| Ok(help(args)),
    ),
    (
        "history",
        "Lists the recorded executions of a workflow.",
        "",
        |c, args| c.history(args),
    ),
    (
        "ingest",
        "Registers a JSON file of PEs and workflows as one batch: each item is analysed in turn, the registry commits them as one WAL frame, and the search indexes publish once.",
        "\nUsage:\n  ingest --file <items.json>\n\nThe file holds a JSON array of items, each either\n  {\"Pe\": {\"name\": \"...\", \"code\": \"...\"}}\n  {\"Workflow\": {\"name\": \"...\", \"code\": \"...\", \"pes\": [{\"name\": \"...\", \"code\": \"...\"}]}}\n(`description` is optional everywhere and auto-generated when absent.)\nOutcomes print per item — a failed item does not abort the rest.",
        |c, args| c.ingest(args),
    ),
    (
        "list",
        "Lists all items in the registry.",
        "",
        |c, _| c.list(),
    ),
    (
        "literal_search",
        "Searches the registry for workflows and processing elements matching the search term. Accepts --top N.",
        "\nUsage:\n  literal_search [workflow|pe] [search_term] [--top N]",
        |c, args| c.literal_search(args),
    ),
    (
        "metrics",
        "Prints the server's request metrics snapshot (per-endpoint counts and latency percentiles).",
        "",
        |c, _| c.client.metrics().map(|snap| snap.render()),
    ),
    (
        "quit",
        "Exits the CLI.",
        "",
        |c, _| {
            c.done = true;
            Ok("Bye.".to_string())
        },
    ),
    (
        "register_pe",
        "Registers a new PE from a Python file.",
        "",
        |c, args| c.register_pe(args),
    ),
    (
        "register_workflow",
        "Registers a workflow file and every PE found in it.",
        "",
        |c, args| c.register_workflow(args),
    ),
    (
        "remove_all",
        "Removes all registered PEs and workflows.",
        "",
        |c, _| {
            c.client
                .remove_all()
                .map(|_| "Removed all PEs and workflows.".to_string())
        },
    ),
    (
        "remove_pe",
        "Removes a PE by name or ID.",
        "",
        |c, args| c.remove(args, true),
    ),
    (
        "remove_workflow",
        "Removes a workflow by name or ID.",
        "",
        |c, args| c.remove(args, false),
    ),
    (
        "run",
        "Runs a workflow in the registry based on the provided name or ID.",
        "\nUsage:\n  run identifier [options]\n\nOptions:\n  identifier            Name or ID of the workflow to run\n  --rawinput            Treat input as raw string instead of evaluating it\n  -v, --verbose         Enable verbose output\n  -i, --input <data>    Input data for the workflow (can be used multiple times)\n  --multi <n>           Run the workflow in parallel using multiprocessing\n  --dynamic             Run the workflow in parallel using Redis\n  --fault-policy <p>    fail-fast (default) | retry | dead-letter\n  --retries <n>         Attempts per datum under retry/dead-letter (default 3)\n  --backoff-ms <n>      Base backoff between retry attempts (default 10)\n  --task-timeout-ms <n> Per-task timeout for --dynamic runs",
        |c, args| c.run(args),
    ),
    (
        "semantic_search",
        "Searches the registry for workflows and processing elements matching semantically the search term.",
        "\nUsage:\n  semantic_search [workflow|pe] [search_term] [--top N]",
        |c, args| c.semantic_search(args),
    ),
    (
        "update_pe_description",
        "Updates a PE's description.",
        "",
        |c, args| c.update_description(args, true),
    ),
    (
        "update_workflow_description",
        "Updates a workflow's description.",
        "",
        |c, args| c.update_description(args, false),
    ),
];

/// `help` and `help <verb>`.
fn help(args: &[String]) -> String {
    if let Some(topic) = args.first() {
        if let Some((_, desc, usage, _)) = COMMANDS.iter().find(|(v, ..)| v == topic) {
            return format!("{desc}{usage}");
        }
        return format!("No help for '{topic}'.");
    }
    let mut out = String::from(
        "Documented commands (type help <topic>):\n========================================\n",
    );
    for (name, ..) in COMMANDS {
        let _ = writeln!(out, "{name}");
    }
    out
}

impl Cli {
    pub fn new(client: LaminarClient) -> Self {
        Cli {
            client,
            done: false,
            last_failed: false,
            any_failed: false,
        }
    }

    pub fn client(&mut self) -> &mut LaminarClient {
        &mut self.client
    }

    /// The Fig. 5a prompt.
    pub fn prompt(&self) -> &'static str {
        "(laminar) "
    }

    /// Whether the most recently executed command failed.
    pub fn last_command_failed(&self) -> bool {
        self.last_failed
    }

    /// Process exit status for the session: nonzero when any command
    /// failed, so piped scripts surface errors instead of exiting 0.
    pub fn exit_code(&self) -> u8 {
        u8::from(self.any_failed)
    }

    /// Execute one input line, returning the output text. Errors are
    /// rendered as `Error: <typed error>` and recorded — see
    /// [`Cli::last_command_failed`] and [`Cli::exit_code`].
    pub fn execute(&mut self, line: &str) -> String {
        let args = tokenize(line);
        if args.is_empty() {
            self.last_failed = false;
            return String::new();
        }
        let cmd = args[0].as_str();
        let mut unknown = false;
        let result = match COMMANDS.iter().find(|&&(verb, ..)| verb == cmd) {
            Some(&(.., handler)) => handler(self, &args[1..]),
            None => {
                unknown = true;
                Ok(format!(
                    "Unknown command '{cmd}'. Type 'help' to list commands."
                ))
            }
        };
        self.last_failed = result.is_err() || unknown;
        self.any_failed |= self.last_failed;
        result.unwrap_or_else(|e| format!("Error: {e}"))
    }

    /// `ingest --file <items.json>`: the bulk registration verb over the
    /// `RegisterBatch` endpoint.
    fn ingest(&self, args: &[String]) -> Result<String, ClientError> {
        let mut file: Option<&String> = None;
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--file" => {
                    i += 1;
                    file = Some(
                        args.get(i)
                            .ok_or_else(|| ClientError::Server("--file needs a path".into()))?,
                    );
                }
                other => {
                    return Err(ClientError::Server(format!(
                        "unexpected argument '{other}'"
                    )))
                }
            }
            i += 1;
        }
        let path =
            file.ok_or_else(|| ClientError::Server("usage: ingest --file <items.json>".into()))?;
        let text = std::fs::read_to_string(path)
            .map_err(|e| ClientError::Server(format!("cannot read {path}: {e}")))?;
        let items: Vec<BatchItemWire> = serde_json::from_str(&text)
            .map_err(|e| ClientError::Server(format!("invalid batch file {path}: {e}")))?;
        let submitted = items.len();
        let outcomes = self.client.register_batch(items)?;
        let mut out = String::new();
        let mut failures: Vec<String> = Vec::new();
        for (idx, outcome) in outcomes.iter().enumerate() {
            match outcome {
                BatchOutcomeWire::Registered {
                    pe_ids,
                    workflow_id,
                } => {
                    for (name, id) in pe_ids {
                        let _ = writeln!(out, "• {name} - type (ID {id})");
                    }
                    if let Some((name, id)) = workflow_id {
                        let _ = writeln!(out, "• {name} - Workflow (ID {id})");
                    }
                }
                BatchOutcomeWire::Failed { pe_ids, error } => {
                    for (name, id) in pe_ids {
                        let _ = writeln!(out, "• {name} - type (ID {id})");
                    }
                    failures.push(format!("item {}: {error}", idx + 1));
                }
            }
        }
        let registered = submitted - failures.len();
        if !failures.is_empty() {
            return Err(ClientError::Server(format!(
                "ingest committed {registered} of {submitted} items; {} failed: {}",
                failures.len(),
                failures.join("; ")
            )));
        }
        let _ = writeln!(out, "Ingested {registered} items in one batch.");
        Ok(out)
    }

    fn list(&self) -> Result<String, ClientError> {
        let (pes, wfs) = self.client.get_registry()?;
        let mut out = String::from("Found PEs...\n");
        for p in &pes {
            let _ = writeln!(out, "• {} - type (ID {})", p.name, p.id);
        }
        out.push_str("Found workflows...\n");
        for w in &wfs {
            let _ = writeln!(out, "• {} - Workflow (ID {})", w.name, w.id);
        }
        Ok(out)
    }

    fn register_pe(&self, args: &[String]) -> Result<String, ClientError> {
        let path = args
            .first()
            .ok_or_else(|| ClientError::Server("usage: register_pe <file.py>".into()))?;
        let code = std::fs::read_to_string(path)
            .map_err(|e| ClientError::Server(format!("cannot read {path}: {e}")))?;
        let name = stem(path);
        let id = self.client.register_pe(&name, &code, None)?;
        Ok(format!("• {name} - type (ID {id})"))
    }

    fn register_workflow(&self, args: &[String]) -> Result<String, ClientError> {
        let path = args
            .first()
            .ok_or_else(|| ClientError::Server("usage: register_workflow <file.py>".into()))?;
        let code = std::fs::read_to_string(path)
            .map_err(|e| ClientError::Server(format!("cannot read {path}: {e}")))?;
        let name = stem(path);
        let reg = self.client.register_workflow(&name, &code)?;
        // Fig. 5a output shape.
        let mut out = String::from("Found PEs...\n");
        for (pe_name, id) in &reg.pes {
            let _ = writeln!(out, "• {pe_name} - type (ID {id})");
        }
        out.push_str("Found workflows...\n");
        let _ = writeln!(
            out,
            "• {} - Workflow (ID {})",
            reg.workflow.0, reg.workflow.1
        );
        Ok(out)
    }

    fn remove(&self, args: &[String], pe: bool) -> Result<String, ClientError> {
        let ident =
            parse_ident(args.first().ok_or_else(|| {
                ClientError::Server("usage: remove_[pe|workflow] <id|name>".into())
            })?);
        if pe {
            self.client.remove_pe(ident)?;
            Ok("Removed PE.".into())
        } else {
            self.client.remove_workflow(ident)?;
            Ok("Removed workflow.".into())
        }
    }

    fn describe(&self, args: &[String]) -> Result<String, ClientError> {
        let (scope, ident_arg) = match args {
            [kind, ident] if kind == "pe" || kind == "workflow" => (
                if kind == "pe" {
                    SearchScope::Pe
                } else {
                    SearchScope::Workflow
                },
                ident,
            ),
            [ident] => (SearchScope::Pe, ident),
            _ => {
                return Err(ClientError::Server(
                    "usage: describe [pe|workflow] <id|name>".into(),
                ))
            }
        };
        self.client.describe(scope, parse_ident(ident_arg))
    }

    fn literal_search(&self, args: &[String]) -> Result<String, ClientError> {
        let (args, top_n) = extract_top(args)?;
        let (scope, term) = parse_scope_and_term(&args)?;
        let (pes, wfs) = self
            .client
            .search_registry_literal_top(scope, &term, top_n)?;
        let mut out = String::new();
        let _ = writeln!(out, "Performing literal search for the term: {term}");
        for p in &pes {
            let _ = writeln!(
                out,
                "peId {} peName {} description {}",
                p.id,
                p.name,
                short(&p.description)
            );
        }
        for w in &wfs {
            let _ = writeln!(
                out,
                "workflowId {} workflowName {} description {}",
                w.id,
                w.name,
                short(&w.description)
            );
        }
        if pes.is_empty() && wfs.is_empty() {
            out.push_str("No matches.\n");
        }
        Ok(out)
    }

    fn semantic_search(&self, args: &[String]) -> Result<String, ClientError> {
        let (args, top_n) = extract_top(args)?;
        let (scope, term) = parse_scope_and_term(&args)?;
        let hits = self
            .client
            .search_registry_semantic_top(scope, &term, top_n)?;
        // Fig. 8's result table.
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Performing semantic search on {}, with query type: text",
            scope_name(scope)
        );
        let _ = writeln!(out, "Encoding query as text");
        let _ = writeln!(
            out,
            "{:>4}  {:<22} {:<50} cosine_similarity",
            "id", "name", "description"
        );
        for h in hits {
            let _ = writeln!(
                out,
                "{:>4}  {:<22} {:<50} {:.6}",
                h.id,
                h.name,
                short(&h.description),
                h.cosine_similarity
            );
        }
        Ok(out)
    }

    fn code_recommendation(&self, args: &[String]) -> Result<String, ClientError> {
        let (args, top_n) = extract_top(args)?;
        let mut embedding = EmbeddingType::Spt;
        let mut positional = Vec::new();
        let mut i = 0;
        while i < args.len() {
            if args[i] == "--embedding_type" {
                i += 1;
                embedding = match args.get(i).map(String::as_str) {
                    Some("llm") => EmbeddingType::Llm,
                    Some("spt") => EmbeddingType::Spt,
                    other => {
                        return Err(ClientError::Server(format!(
                            "unknown embedding type {other:?}"
                        )))
                    }
                };
            } else {
                positional.push(args[i].clone());
            }
            i += 1;
        }
        let (scope, snippet) = parse_scope_and_term(&positional)?;
        let hits = self
            .client
            .code_recommendation_top(scope, &snippet, embedding, top_n)?;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>4}  {:<18} {:<40} score  similarFunc",
            "id", "name", "description"
        );
        for h in hits {
            let _ = writeln!(
                out,
                "{:>4}  {:<18} {:<40} {:.1}  {}",
                h.id,
                h.name,
                short(&h.description),
                h.score,
                short(&h.similar_code)
            );
            // v9: clustered hits carry the common idiom their cluster
            // agreed on (Aroma's intersected statements).
            if h.cluster_size > 1 && !h.common_core.is_empty() {
                let _ = writeln!(out, "      cluster of {}, common core:", h.cluster_size);
                for line in h.common_core.lines() {
                    let _ = writeln!(out, "      | {line}");
                }
            }
        }
        Ok(out)
    }

    fn code_completion(&self, args: &[String]) -> Result<String, ClientError> {
        if args.is_empty() {
            return Err(ClientError::Server(
                "usage: code_completion \"<partial code>\"".into(),
            ));
        }
        let snippet = args.join(" ");
        let (source, lines, progress) = self.client.code_completion(&snippet)?;
        let mut out = String::new();
        match source {
            None => out.push_str("No similar PE found in the registry.\n"),
            Some((id, name)) => {
                let _ = writeln!(
                    out,
                    "Completing from {name} (ID {id}), {:.0}% typed:",
                    progress * 100.0
                );
                for l in lines {
                    let _ = writeln!(out, "  + {l}");
                }
            }
        }
        Ok(out)
    }

    fn update_description(&self, args: &[String], pe: bool) -> Result<String, ClientError> {
        if args.len() < 2 {
            return Err(ClientError::Server(
                "usage: update_[pe|workflow]_description <id|name> <description>".into(),
            ));
        }
        let ident = parse_ident(&args[0]);
        let description = args[1..].join(" ");
        if pe {
            self.client.update_pe_description(ident, &description)?;
        } else {
            self.client
                .update_workflow_description(ident, &description)?;
        }
        Ok("Description updated.".into())
    }

    fn run(&self, args: &[String]) -> Result<String, ClientError> {
        use laminar_server::protocol::{FaultPolicyWire, RunInputWire, RunMode};
        let mut ident: Option<Ident> = None;
        let mut inputs: Vec<String> = Vec::new();
        let mut multi: Option<usize> = None;
        let mut dynamic = false;
        let mut verbose = false;
        let mut rawinput = false;
        let mut fault_policy: Option<String> = None;
        let mut retries: u32 = 3;
        let mut backoff_ms: u64 = 10;
        let mut task_timeout_ms: Option<u64> = None;
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "-i" | "--input" => {
                    i += 1;
                    inputs.push(
                        args.get(i)
                            .ok_or_else(|| ClientError::Server("-i needs a value".into()))?
                            .clone(),
                    );
                }
                "--multi" => {
                    i += 1;
                    multi = Some(
                        args.get(i)
                            .and_then(|s| s.parse().ok())
                            .ok_or_else(|| ClientError::Server("--multi needs a number".into()))?,
                    );
                }
                "--dynamic" => dynamic = true,
                "-v" | "--verbose" => verbose = true,
                "--rawinput" => rawinput = true,
                "--fault-policy" => {
                    i += 1;
                    fault_policy = Some(
                        args.get(i)
                            .ok_or_else(|| {
                                ClientError::Server("--fault-policy needs a value".into())
                            })?
                            .clone(),
                    );
                }
                "--retries" => {
                    i += 1;
                    retries = args
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| ClientError::Server("--retries needs a number".into()))?;
                }
                "--backoff-ms" => {
                    i += 1;
                    backoff_ms = args
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| ClientError::Server("--backoff-ms needs a number".into()))?;
                }
                "--task-timeout-ms" => {
                    i += 1;
                    task_timeout_ms =
                        Some(args.get(i).and_then(|s| s.parse().ok()).ok_or_else(|| {
                            ClientError::Server("--task-timeout-ms needs a number".into())
                        })?);
                }
                other if ident.is_none() => ident = Some(parse_ident(other)),
                other => {
                    return Err(ClientError::Server(format!(
                        "unexpected argument '{other}'"
                    )))
                }
            }
            i += 1;
        }
        let fault = match fault_policy.as_deref() {
            None | Some("fail-fast") => FaultPolicyWire::FailFast,
            Some("retry") => FaultPolicyWire::Retry {
                max_attempts: retries,
                backoff_ms,
            },
            Some("dead-letter") => FaultPolicyWire::DeadLetter {
                max_attempts: retries,
            },
            Some(other) => {
                return Err(ClientError::Server(format!(
                    "unknown fault policy '{other}' (fail-fast | retry | dead-letter)"
                )))
            }
        };
        let ident =
            ident.ok_or_else(|| ClientError::Server("usage: run <id|name> [options]".into()))?;
        // One numeric `-i` is an iteration count; several values (or
        // --rawinput) are explicit data items, per the Fig. 5b usage text.
        let input = match (inputs.len(), rawinput) {
            (0, _) => RunInputWire::Iterations(1),
            (1, false) if inputs[0].parse::<u64>().is_ok() => {
                RunInputWire::Iterations(inputs[0].parse().expect("checked"))
            }
            _ => RunInputWire::Data(inputs.iter().map(|s| parse_datum(s, rawinput)).collect()),
        };
        let mode = if let Some(p) = multi {
            RunMode::Multiprocess { processes: p }
        } else if dynamic {
            RunMode::Dynamic
        } else {
            RunMode::Sequential
        };
        let out =
            self.client
                .run_custom_faults(ident, input, mode, verbose, fault, task_timeout_ms)?;
        let mut text = String::new();
        for l in &out.lines {
            let _ = writeln!(text, "{l}");
        }
        if verbose {
            for s in &out.summaries {
                let _ = writeln!(text, "{s}");
            }
        }
        for d in &out.dead_letters {
            let _ = writeln!(
                text,
                "dead-letter: {} ({} attempts): {}",
                d.pe, d.attempts, d.error
            );
        }
        if let Some(s) = &out.fault_stats {
            let _ = writeln!(
                text,
                "faults: {} faults, {} retries, {} dead-lettered, {} timeouts, {} workers replaced",
                s.faults, s.retries, s.dead_letters, s.task_timeouts, s.worker_replacements
            );
        }
        if !out.ok {
            text.push_str("Run failed.\n");
        }
        Ok(text)
    }

    /// `health`: liveness/readiness probe. Not-ready is reported as an
    /// error so the session exit status goes nonzero — a piped
    /// `echo health | laminar` works as a container healthcheck.
    fn health(&self) -> Result<String, ClientError> {
        let h = self.client.health()?;
        let mut out = String::new();
        let _ = writeln!(out, "live: {}", h.live);
        let _ = writeln!(out, "ready: {}", h.ready);
        let _ = writeln!(
            out,
            "storage: {}",
            match h.storage {
                laminar_server::StorageStateWire::Healthy => "healthy",
                laminar_server::StorageStateWire::Degraded => "DEGRADED (read-only)",
            }
        );
        let _ = writeln!(out, "uptime: {} ms", h.uptime_ms);
        let _ = writeln!(out, "degraded transitions: {}", h.degraded_transitions);
        if let Some(e) = &h.last_persist_error {
            let _ = writeln!(out, "last persist error: {e}");
        }
        if h.ready {
            Ok(out)
        } else {
            Err(ClientError::Server(format!(
                "{out}server is not ready (storage degraded, read-only)"
            )))
        }
    }

    fn history(&self, args: &[String]) -> Result<String, ClientError> {
        let ident = parse_ident(
            args.first()
                .ok_or_else(|| ClientError::Server("usage: history <id|name>".into()))?,
        );
        let rows = self.client.get_executions(ident)?;
        if rows.is_empty() {
            return Ok("No executions recorded.".into());
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>4}  {:<8} {:<12} {:<10} output",
            "id", "mapping", "input", "status"
        );
        for r in rows {
            let _ = writeln!(
                out,
                "{:>4}  {:<8} {:<12} {:<10} {}",
                r.id,
                r.mapping,
                short(&r.input),
                r.status,
                short(&r.output_preview)
            );
        }
        Ok(out)
    }
}

/// Parse one `-i` value: int, then float, else string (forced string when
/// `--rawinput`).
fn parse_datum(s: &str, raw: bool) -> d4py::Data {
    use d4py::Data;
    if raw {
        return Data::from(s);
    }
    if let Ok(i) = s.parse::<i64>() {
        return Data::from(i);
    }
    if let Ok(f) = s.parse::<f64>() {
        return Data::from(f);
    }
    Data::from(s)
}

fn scope_name(scope: SearchScope) -> &'static str {
    match scope {
        SearchScope::Pe => "pe",
        SearchScope::Workflow => "workflow",
        SearchScope::Both => "all",
    }
}

/// The first line of `s`, cut past 48 characters to 45 and an ellipsis.
/// It counts characters, not bytes, so a cut never splits one.
fn short(s: &str) -> String {
    let line = s.lines().next().unwrap_or("");
    if line.chars().count() > 48 {
        format!("{}...", line.chars().take(45).collect::<String>())
    } else {
        line.to_string()
    }
}

fn stem(path: &str) -> String {
    Path::new(path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.to_string())
}

/// Strip a `--top N` flag from `args`, returning the remaining arguments
/// and the requested result cap.
fn extract_top(args: &[String]) -> Result<(Vec<String>, Option<usize>), ClientError> {
    let mut rest = Vec::new();
    let mut top_n = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--top" {
            i += 1;
            top_n = Some(
                args.get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| ClientError::Server("--top needs a number".into()))?,
            );
        } else {
            rest.push(args[i].clone());
        }
        i += 1;
    }
    Ok((rest, top_n))
}

fn parse_ident(s: &str) -> Ident {
    match s.parse::<u64>() {
        Ok(id) => Ident::Id(id),
        Err(_) => Ident::Name(s.to_string()),
    }
}

fn parse_scope_and_term(args: &[String]) -> Result<(SearchScope, String), ClientError> {
    match args {
        [] => Err(ClientError::Server("missing search term".into())),
        [kind, rest @ ..] if kind == "pe" || kind == "workflow" || kind == "all" => {
            let scope = match kind.as_str() {
                "pe" => SearchScope::Pe,
                "workflow" => SearchScope::Workflow,
                _ => SearchScope::Both,
            };
            if rest.is_empty() {
                return Err(ClientError::Server("missing search term".into()));
            }
            Ok((scope, rest.join(" ")))
        }
        all => Ok((SearchScope::Both, all.join(" "))),
    }
}

/// Shell-like tokenizer honouring single/double quotes.
fn tokenize(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut quote: Option<char> = None;
    for c in line.chars() {
        match quote {
            Some(q) => {
                if c == q {
                    quote = None;
                } else {
                    cur.push(c);
                }
            }
            None => match c {
                '\'' | '"' => quote = Some(c),
                c if c.is_whitespace() => {
                    if !cur.is_empty() {
                        out.push(std::mem::take(&mut cur));
                    }
                }
                c => cur.push(c),
            },
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use laminar_server::LaminarServer;
    use std::sync::Arc;

    const WORKFLOW_FILE: &str = "\
import random

class NumberProducer(ProducerPE):
    def _process(self, inputs):
        return random.randint(1, 1000)

class IsPrime(IterativePE):
    def _process(self, num):
        if all(num % i != 0 for i in range(2, num)):
            return num

class PrintPrime(ConsumerPE):
    def _process(self, num):
        print('the num {} is prime'.format(num))
";

    fn cli() -> Cli {
        let server = Arc::new(LaminarServer::with_stock());
        let mut client = LaminarClient::connect(server);
        client.register("rosa", "pw").unwrap();
        Cli::new(client)
    }

    fn cli_with_isprime() -> (Cli, String) {
        // A directory per call: tests run on parallel threads, and a
        // shared file is empty for a moment each time another test
        // rewrites it — the registration then finds no PEs.
        static CALL: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
        let mut c = cli();
        let dir = std::env::temp_dir().join(format!(
            "laminar-cli-{}-{}",
            std::process::id(),
            CALL.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("isprime_wf.py");
        std::fs::write(&path, WORKFLOW_FILE).unwrap();
        let out = c.execute(&format!("register_workflow {}", path.display()));
        assert!(out.contains("Found PEs"), "{out}");
        (c, path.display().to_string())
    }

    #[test]
    fn tokenizer_handles_quotes() {
        assert_eq!(
            tokenize("semantic_search pe \"a pe that is able to detect anomalies\""),
            vec![
                "semantic_search",
                "pe",
                "a pe that is able to detect anomalies"
            ]
        );
        assert_eq!(
            tokenize("  run   169 -i 10 "),
            vec!["run", "169", "-i", "10"]
        );
        assert_eq!(
            tokenize("code_recommendation pe 'random.randint(1, 1000)'"),
            vec!["code_recommendation", "pe", "random.randint(1, 1000)"]
        );
        assert!(tokenize("   ").is_empty());
    }

    #[test]
    fn help_lists_all_fig5a_commands() {
        let mut c = cli();
        let out = c.execute("help");
        for cmd in [
            "code_recommendation",
            "describe",
            "list",
            "literal_search",
            "quit",
            "register_pe",
            "register_workflow",
            "remove_all",
            "remove_pe",
            "remove_workflow",
            "run",
            "semantic_search",
            "update_pe_description",
            "update_workflow_description",
        ] {
            assert!(out.contains(cmd), "missing {cmd}:\n{out}");
        }
        // Topic help (Fig. 5b's `help run`).
        let out = c.execute("help run");
        assert!(out.contains("--multi"), "{out}");
        assert!(out.contains("--dynamic"), "{out}");
        assert!(out.contains("-i, --input"), "{out}");
    }

    #[test]
    fn register_workflow_transcript_matches_fig5a() {
        let (mut c, _) = cli_with_isprime();
        let out = c.execute("list");
        assert!(out.contains("• NumberProducer - type (ID"), "{out}");
        assert!(out.contains("• IsPrime - type (ID"), "{out}");
        assert!(out.contains("• isprime_wf - Workflow (ID"), "{out}");
    }

    #[test]
    fn run_by_name_and_by_id() {
        let (mut c, _) = cli_with_isprime();
        let out = c.execute("run isprime_wf -i 10 --multi 9 -v");
        assert!(out.contains("is prime"), "{out}");
        assert!(out.contains("Processed"), "verbose summaries: {out}");
        // By numeric id, sequentially.
        let list = c.execute("list");
        let id_line = list
            .lines()
            .find(|l| l.contains("isprime_wf"))
            .unwrap()
            .to_string();
        let id: u64 = id_line
            .rsplit("(ID ")
            .next()
            .unwrap()
            .trim_end_matches(')')
            .parse()
            .unwrap();
        let out = c.execute(&format!("run {id} -i 5"));
        assert!(out.contains("is prime") || !out.contains("Error"), "{out}");
        // Dynamic, Listing-3 style.
        let out = c.execute("run isprime_wf -i 5 --dynamic");
        assert!(!out.contains("Error"), "{out}");
    }

    #[test]
    fn semantic_search_transcript_matches_fig8() {
        let (mut c, _) = cli_with_isprime();
        let out = c.execute("semantic_search pe \"a pe that checks prime numbers\"");
        assert!(
            out.contains("Performing semantic search on pe, with query type: text"),
            "{out}"
        );
        assert!(out.contains("cosine_similarity"), "{out}");
        assert!(out.contains("IsPrime"), "{out}");
    }

    #[test]
    fn code_recommendation_transcript_matches_fig9() {
        let (mut c, _) = cli_with_isprime();
        let out = c.execute("code_recommendation pe \"random.randint(1, 1000)\"");
        assert!(out.contains("NumberProducer"), "{out}");
        assert!(out.contains("similarFunc"), "{out}");
        let out = c.execute(
            "code_recommendation workflow \"random.randint(1, 1000)\" --embedding_type spt",
        );
        assert!(out.contains("isprime_wf"), "{out}");
        let out =
            c.execute("code_recommendation pe \"random.randint(1, 1000)\" --embedding_type llm");
        assert!(!out.contains("Error"), "{out}");
    }

    #[test]
    fn top_flag_caps_search_results() {
        let (mut c, _) = cli_with_isprime();
        let out = c.execute("literal_search prime --top 1");
        let pe_lines = out.lines().filter(|l| l.starts_with("peId")).count();
        assert_eq!(pe_lines, 1, "{out}");
        let out = c.execute("semantic_search pe \"prime numbers\" --top 1");
        // Header + query lines + exactly one hit row.
        let hit_lines = out
            .lines()
            .filter(|l| l.contains("Prime") || l.contains("Producer"))
            .count();
        assert_eq!(hit_lines, 1, "{out}");
        // Malformed flag is an error, not a panic.
        assert!(c.execute("literal_search prime --top").contains("Error"));
        assert!(c
            .execute("literal_search prime --top abc")
            .contains("Error"));
    }

    #[test]
    fn run_accepts_fault_policy_flags() {
        let (mut c, _) = cli_with_isprime();
        let out = c.execute("run isprime_wf -i 5 --fault-policy retry --retries 2 --backoff-ms 1");
        assert!(!out.contains("Error"), "{out}");
        let out = c.execute("run isprime_wf -i 5 --fault-policy dead-letter");
        assert!(!out.contains("Error"), "{out}");
        let out = c.execute("run isprime_wf -i 5 --fault-policy lenient");
        assert!(out.contains("unknown fault policy"), "{out}");
        assert!(c.execute("run isprime_wf --retries").contains("Error"));
        // `help run` documents the new surface.
        let help = c.execute("help run");
        assert!(help.contains("--fault-policy"), "{help}");
        assert!(help.contains("--task-timeout-ms"), "{help}");
    }

    #[test]
    fn run_with_multiple_inputs_and_history() {
        let (mut c, _) = cli_with_isprime();
        // Multiple -i values become data items (isprime's root is a
        // producer, so they drive three iterations).
        let out = c.execute("run isprime_wf -i 7 -i 8 -i 11");
        assert!(!out.contains("Error"), "{out}");
        // One numeric -i stays an iteration count.
        let out = c.execute("run isprime_wf -i 5 --multi 9");
        assert!(!out.contains("Error"), "{out}");
        // History shows both executions.
        let out = c.execute("history isprime_wf");
        assert!(out.contains("simple"), "{out}");
        assert!(out.contains("multi"), "{out}");
        assert!(out.contains("Completed"), "{out}");
        assert!(c.execute("history").contains("Error"));
        assert!(c.execute("history ghost").contains("Error"));
    }

    /// `history` cuts each input and output preview by characters, not
    /// bytes, so a non-ASCII run input lists instead of panicking.
    #[test]
    fn history_cuts_non_ascii_runs_at_a_char_boundary() {
        let (mut c, _) = cli_with_isprime();
        // Byte 45 of the recorded input falls inside an 'é'.
        c.execute(&format!("run isprime_wf --rawinput -i a{}", "é".repeat(40)));
        let out = c.execute("history isprime_wf");
        assert!(out.contains("aéé"), "{out}");
        assert!(out.contains("é..."), "{out}");
    }

    #[test]
    fn code_completion_command() {
        let (mut c, _) = cli_with_isprime();
        let out = c.execute("code_completion \"class P(IterativePE):\n    def _process(self, num):\n        if all(num % i != 0 for i in range(2, num)):\"");
        assert!(out.contains("Completing from IsPrime"), "{out}");
        assert!(out.contains("+ "), "{out}");
        let out = c.execute("code_completion \"import xml\"");
        assert!(out.contains("No similar PE"), "{out}");
        assert!(c.execute("code_completion").contains("Error"));
    }

    #[test]
    fn literal_search_and_describe() {
        let (mut c, _) = cli_with_isprime();
        let out = c.execute("literal_search prime");
        assert!(out.contains("IsPrime"), "{out}");
        let out = c.execute("describe pe IsPrime");
        assert!(out.contains("class IsPrime"), "{out}");
    }

    #[test]
    fn update_and_remove_flow() {
        let (mut c, _) = cli_with_isprime();
        let out = c.execute("update_pe_description NumberProducer emits fresh random integers");
        assert!(out.contains("updated"), "{out}");
        let out = c.execute("describe pe NumberProducer");
        assert!(out.contains("fresh random integers"), "{out}");
        // FK: removing a referenced PE fails; removing the workflow first works.
        let out = c.execute("remove_pe NumberProducer");
        assert!(out.contains("Error"), "{out}");
        let out = c.execute("remove_workflow isprime_wf");
        assert!(out.contains("Removed"), "{out}");
        let out = c.execute("remove_pe NumberProducer");
        assert!(out.contains("Removed"), "{out}");
        let out = c.execute("remove_all");
        assert!(out.contains("Removed all"), "{out}");
    }

    #[test]
    fn metrics_command_renders_snapshot() {
        let (mut c, _) = cli_with_isprime();
        c.execute("list");
        let out = c.execute("metrics");
        assert!(out.contains("endpoint"), "{out}");
        assert!(out.contains("GetRegistry"), "{out}");
        assert!(out.contains("connections:"), "{out}");
    }

    #[test]
    fn health_command_reports_ready_with_zero_exit() {
        let mut c = cli();
        let out = c.execute("health");
        assert!(out.contains("live: true"), "{out}");
        assert!(out.contains("ready: true"), "{out}");
        assert!(out.contains("storage: healthy"), "{out}");
        assert!(!c.last_command_failed());
        assert_eq!(c.exit_code(), 0);
    }

    #[test]
    fn compact_command_without_data_dir_reports_error() {
        let mut c = cli();
        let help = c.execute("help");
        assert!(help.contains("compact"), "{help}");
        // An in-memory server has no data directory to compact.
        let out = c.execute("compact");
        assert!(out.contains("Error"), "{out}");
        assert!(out.contains("--data-dir"), "{out}");
    }

    #[test]
    fn unknown_command_and_quit() {
        let mut c = cli();
        let out = c.execute("frobnicate");
        assert!(out.contains("Unknown command"), "{out}");
        assert!(!c.done);
        let out = c.execute("quit");
        assert!(out.contains("Bye"));
        assert!(c.done);
    }

    #[test]
    fn register_pe_from_file() {
        let mut c = cli();
        let dir = std::env::temp_dir().join(format!("laminar-cli-pe-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("word_counter.py");
        std::fs::write(&path, "class WordCounter(IterativePE):\n    def _process(self, text):\n        return len(text.split())\n").unwrap();
        let out = c.execute(&format!("register_pe {}", path.display()));
        assert!(out.contains("word_counter"), "{out}");
        let out = c.execute("describe pe word_counter");
        assert!(out.contains("WordCounter"), "{out}");
    }

    #[test]
    fn errors_are_rendered_not_panicked() {
        let mut c = cli();
        assert!(c.execute("run").contains("Error"));
        assert!(c.execute("describe").contains("Error"));
        assert!(c
            .execute("register_workflow /no/such/file.py")
            .contains("Error"));
        assert!(c.execute("run ghost -i 2").contains("Error"));
    }

    #[test]
    fn errors_set_nonzero_exit_status() {
        let mut c = cli();
        c.execute("list");
        assert!(!c.last_command_failed());
        assert_eq!(c.exit_code(), 0);
        let out = c.execute("describe");
        assert!(out.contains("Error"), "{out}");
        assert!(c.last_command_failed());
        assert_eq!(c.exit_code(), 1);
        // A later success clears the per-command flag, but the session
        // status stays sticky so piped scripts surface the failure.
        c.execute("list");
        assert!(!c.last_command_failed());
        assert_eq!(c.exit_code(), 1);
        // Unknown commands are failures too.
        let mut c2 = cli();
        c2.execute("frobnicate");
        assert!(c2.last_command_failed());
        assert_eq!(c2.exit_code(), 1);
    }

    #[test]
    fn command_table_is_alphabetical() {
        let verbs: Vec<&str> = COMMANDS.iter().map(|&(verb, ..)| verb).collect();
        let mut sorted = verbs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(verbs, sorted);
    }

    #[test]
    fn ingest_command_bulk_registers_from_file() {
        use laminar_server::PeSubmission;
        let mut c = cli();
        let items = vec![
            BatchItemWire::Pe(PeSubmission {
                name: "Standalone".into(),
                code:
                    "class Standalone(IterativePE):\n    def _process(self, x):\n        return x\n"
                        .into(),
                description: None,
            }),
            BatchItemWire::Workflow {
                name: "batch_wf".into(),
                code: WORKFLOW_FILE.into(),
                description: None,
                pes: crate::extract::extract_pes_from_source(WORKFLOW_FILE),
            },
        ];
        let dir = std::env::temp_dir().join(format!("laminar-cli-ingest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("items.json");
        std::fs::write(&path, serde_json::to_string(&items).unwrap()).unwrap();
        let out = c.execute(&format!("ingest --file {}", path.display()));
        assert!(out.contains("• Standalone - type (ID"), "{out}");
        assert!(out.contains("• batch_wf - Workflow (ID"), "{out}");
        assert!(out.contains("Ingested 2 items in one batch."), "{out}");
        assert!(!c.last_command_failed());
        let list = c.execute("list");
        assert!(list.contains("IsPrime"), "{list}");
        // Bad invocations are typed errors with a failing status, not
        // panics or silent successes.
        assert!(c.execute("ingest").contains("Error"));
        assert!(c.execute("ingest --file /no/such.json").contains("Error"));
        assert!(c.execute("ingest --frobnicate").contains("Error"));
        assert!(c.last_command_failed());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
