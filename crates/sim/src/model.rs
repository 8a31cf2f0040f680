//! The reference model: a plain-HashMap interpreter of the acknowledged
//! operation history.
//!
//! The model consumes the omniscient journal the network-fault wrapper
//! keeps ([`CallRecord`](crate::netfault::CallRecord)) — every attempt
//! that actually reached the server, with the server's true response,
//! including responses the client never saw because the reply was lost.
//! From that it maintains what the registry MUST contain:
//!
//! * an acknowledged mutation (`Registered`/`Ok` in the journal) is
//!   **Present**: it must appear in every subsequent read and must
//!   survive crash-restart;
//! * a rejected mutation (`Error` in the journal) leaves **no trace** —
//!   with one documented exception: a `RegisterWorkflow` that failed
//!   *validation* (its name is taken) keeps the member PEs staged before
//!   the workflow row (the server's partial-progress contract), while
//!   one that failed on the WAL leaves nothing — the reply does not say
//!   which, so the members become **Maybe**, a superset of both;
//! * a **Maybe** row is resolved by the next full read: if the server
//!   shows it, it is promoted to Present (and its attributes learned);
//!   if not, it is erased. Either way the ambiguity never outlives one
//!   observation.
//!
//! [`SimModel::check_registry`] is the oracle's workhorse: given a full
//! `GetRegistry` answer it demands exact agreement — no ghost rows the
//! model never acknowledged, no lost rows the model knows were
//! acknowledged, and attribute-level agreement (id, code, description,
//! workflow membership) for everything whose value the model knows.

use crate::netfault::{CallOutcome, CallRecord};
use laminar_server::protocol::{
    BatchItemWire, BatchOutcomeWire, Ident, PeInfo, PeSubmission, Request, Response, WorkflowInfo,
};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Presence {
    /// Acknowledged: must be on the server.
    Present,
    /// Possibly committed (member of a failed workflow registration, or
    /// written under an ambiguous ack): resolved by the next full read.
    Maybe,
}

/// What the model knows about one PE row. `None` fields are unknown
/// (e.g. an auto-generated description the model has not read yet);
/// known fields must match the server bit-for-bit.
#[derive(Debug, Clone)]
pub struct PeModel {
    pub presence: Presence,
    pub id: Option<u64>,
    pub code: Option<String>,
    pub desc: Option<String>,
}

#[derive(Debug, Clone)]
pub struct WfModel {
    pub presence: Presence,
    pub id: Option<u64>,
    pub code: Option<String>,
    pub desc: Option<String>,
    /// Member PE ids (order-insensitive), when known.
    pub member_ids: Option<Vec<u64>>,
}

/// The reference registry state, keyed by name (the workload never
/// varies case, so exact-name keys match the server's case-insensitive
/// uniqueness rule).
#[derive(Debug, Default)]
pub struct SimModel {
    pub pes: BTreeMap<String, PeModel>,
    pub wfs: BTreeMap<String, WfModel>,
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

impl SimModel {
    pub fn new() -> SimModel {
        SimModel::default()
    }

    /// Load the model exactly from an authoritative full read (used once
    /// per deployment, right after seeding, before any faults).
    pub fn bootstrap(&mut self, pes: &[PeInfo], wfs: &[WorkflowInfo]) {
        self.pes.clear();
        self.wfs.clear();
        for p in pes {
            self.pes.insert(
                p.name.clone(),
                PeModel {
                    presence: Presence::Present,
                    id: Some(p.id),
                    code: Some(p.code.clone()),
                    desc: Some(p.description.clone()),
                },
            );
        }
        for w in wfs {
            self.wfs.insert(
                w.name.clone(),
                WfModel {
                    presence: Presence::Present,
                    id: Some(w.id),
                    code: Some(w.code.clone()),
                    desc: Some(w.description.clone()),
                    member_ids: Some(w.pe_ids.clone()),
                },
            );
        }
    }

    /// A PE registration committed under `name` with `id`. On a fresh
    /// row the submission's attributes are adopted; on an existing row
    /// this is the server's duplicate-reuse path — attributes stay
    /// whatever the first registration stored.
    fn learn_pe_commit(
        &mut self,
        name: &str,
        id: u64,
        sub: Option<&PeSubmission>,
        v: &mut Vec<String>,
    ) {
        match self.pes.get_mut(name) {
            Some(row) => {
                match row.id {
                    Some(old) if old != id => v.push(format!(
                        "pe '{name}' changed id {old} -> {id}: an acknowledged row was lost and re-created"
                    )),
                    _ => row.id = Some(id),
                }
                if row.presence == Presence::Maybe {
                    // The Maybe row's attributes came from a submission
                    // that may or may not be the one that committed; a
                    // differing re-submission makes them unknowable
                    // until the next read.
                    if let Some(sub) = sub {
                        if row.code.as_deref() != Some(sub.code.as_str()) {
                            row.code = None;
                        }
                        if row.desc.is_some() && row.desc != sub.description {
                            row.desc = None;
                        }
                    }
                    row.presence = Presence::Present;
                }
                // Present row: duplicate reuse, attributes unchanged.
            }
            None => {
                self.pes.insert(
                    name.to_string(),
                    PeModel {
                        presence: Presence::Present,
                        id: Some(id),
                        code: sub.map(|s| s.code.clone()),
                        desc: sub.and_then(|s| {
                            s.description.as_ref().filter(|d| !d.is_empty()).cloned()
                        }),
                    },
                );
            }
        }
    }

    fn learn_wf_commit(
        &mut self,
        name: &str,
        id: u64,
        code: &str,
        desc: Option<&str>,
        member_ids: Vec<u64>,
        v: &mut Vec<String>,
    ) {
        match self.wfs.get_mut(name) {
            Some(row) => {
                match row.id {
                    Some(old) if old != id => v.push(format!(
                        "workflow '{name}' changed id {old} -> {id}: an acknowledged row was lost and re-created"
                    )),
                    _ => row.id = Some(id),
                }
                if row.presence == Presence::Maybe {
                    if row.code.as_deref() != Some(code) {
                        row.code = None;
                    }
                    if row.desc.is_some() && row.desc.as_deref() != desc {
                        row.desc = None;
                    }
                    row.member_ids = Some(member_ids);
                    row.presence = Presence::Present;
                } else {
                    // A committed registration for an already-Present
                    // workflow name cannot happen (duplicates error);
                    // seeing one means the acknowledged row vanished.
                    v.push(format!(
                        "workflow '{name}' re-registered while acknowledged as present"
                    ));
                }
            }
            None => {
                self.wfs.insert(
                    name.to_string(),
                    WfModel {
                        presence: Presence::Present,
                        id: Some(id),
                        code: Some(code.to_string()),
                        desc: desc.filter(|d| !d.is_empty()).map(str::to_string),
                        member_ids: Some(member_ids),
                    },
                );
            }
        }
    }

    /// A workflow registration was acknowledged as failed: its member
    /// PEs may have committed before the failure (partial progress).
    fn mark_members_maybe(&mut self, subs: &[PeSubmission]) {
        for sub in subs {
            self.pes.entry(sub.name.clone()).or_insert_with(|| PeModel {
                presence: Presence::Maybe,
                id: None,
                code: Some(sub.code.clone()),
                desc: sub.description.as_ref().filter(|d| !d.is_empty()).cloned(),
            });
            // Already-known rows keep their state: a Present row is a
            // duplicate-reuse no-op, a Maybe row stays Maybe.
        }
    }

    /// Resolve an ident to the model's key for it, without borrowing
    /// mutably (callers re-index afterwards — keeps borrows trivial).
    fn resolve_pe_name(&self, ident: &Ident) -> Option<String> {
        match ident {
            Ident::Name(n) => self.pes.contains_key(n).then(|| n.clone()),
            Ident::Id(id) => self
                .pes
                .iter()
                .find(|(_, r)| r.id == Some(*id))
                .map(|(n, _)| n.clone()),
        }
    }

    fn resolve_wf_name(&self, ident: &Ident) -> Option<String> {
        match ident {
            Ident::Name(n) => self.wfs.contains_key(n).then(|| n.clone()),
            Ident::Id(id) => self
                .wfs
                .iter()
                .find(|(_, r)| r.id == Some(*id))
                .map(|(n, _)| n.clone()),
        }
    }

    /// Fold one journalled attempt into the model. Returns any
    /// violations detected at apply time (id mutations, impossible
    /// acks); read-level violations come from the check methods.
    pub fn apply(&mut self, rec: &CallRecord) -> Vec<String> {
        let mut v = Vec::new();
        let resp = match &rec.outcome {
            // Never reached the server, or rejected before dispatch
            // (busy/degraded/version): no registry effect.
            CallOutcome::NotDelivered | CallOutcome::Rejected(_) => return v,
            // Streams are runs: they touch execution history (not
            // modelled), never the PE/workflow tables.
            CallOutcome::Stream | CallOutcome::StreamDrained { .. } => return v,
            CallOutcome::Value(resp) => resp,
        };
        match (&rec.req, resp) {
            (Request::RegisterPe { pe, .. }, Response::Registered { pe_ids, .. }) => {
                if let Some((name, id)) = pe_ids.first() {
                    self.learn_pe_commit(name, *id, Some(pe), &mut v);
                }
            }
            // A rejected RegisterPe is a single-row mutation: no trace.
            (Request::RegisterPe { .. }, Response::Error(_)) => {}
            (
                Request::RegisterWorkflow {
                    name,
                    code,
                    description,
                    pes,
                    ..
                },
                Response::Registered {
                    pe_ids,
                    workflow_id,
                },
            ) => {
                for (sub, (n, id)) in pes.iter().zip(pe_ids.iter()) {
                    self.learn_pe_commit(n, *id, Some(sub), &mut v);
                }
                if let Some((_, wid)) = workflow_id {
                    let members = pe_ids.iter().map(|(_, id)| *id).collect();
                    self.learn_wf_commit(name, *wid, code, description.as_deref(), members, &mut v);
                }
            }
            (Request::RegisterWorkflow { pes, .. }, Response::Error(_)) => {
                self.mark_members_maybe(pes);
            }
            (Request::RegisterBatch { items, .. }, Response::BatchRegistered { outcomes }) => {
                for (item, out) in items.iter().zip(outcomes.iter()) {
                    self.apply_batch_item(item, out, &mut v);
                }
            }
            // A batch-level Error is a group-commit WAL failure: the
            // whole frame was rejected, nothing committed.
            (Request::RegisterBatch { .. }, Response::Error(_)) => {}
            (Request::UpdatePeDescription { ident, description, .. }, Response::Ok) => {
                match self.resolve_pe_name(ident) {
                    Some(name) => {
                        let row = self.pes.get_mut(&name).expect("resolved");
                        row.presence = Presence::Present; // an acked update proves existence
                        row.desc = Some(description.clone());
                    }
                    None => v.push(format!(
                        "UpdatePeDescription({ident:?}) acknowledged but the model has no such pe"
                    )),
                }
            }
            (Request::UpdateWorkflowDescription { ident, description, .. }, Response::Ok) => {
                match self.resolve_wf_name(ident) {
                    Some(name) => {
                        let row = self.wfs.get_mut(&name).expect("resolved");
                        row.presence = Presence::Present;
                        row.desc = Some(description.clone());
                    }
                    None => v.push(format!(
                        "UpdateWorkflowDescription({ident:?}) acknowledged but the model has no such workflow"
                    )),
                }
            }
            (Request::RemovePe { ident, .. }, Response::Ok) => match self.resolve_pe_name(ident) {
                Some(name) => {
                    self.pes.remove(&name);
                }
                None => v.push(format!(
                    "RemovePe({ident:?}) acknowledged but the model has no such pe"
                )),
            },
            (Request::RemoveWorkflow { ident, .. }, Response::Ok) => {
                match self.resolve_wf_name(ident) {
                    Some(name) => {
                        self.wfs.remove(&name);
                    }
                    None => v.push(format!(
                        "RemoveWorkflow({ident:?}) acknowledged but the model has no such workflow"
                    )),
                }
            }
            (Request::RemoveAll { .. }, Response::Ok) => {
                self.pes.clear();
                self.wfs.clear();
            }
            // Rejected updates/removes leave no trace; reads change
            // nothing (they are checked, not applied).
            _ => {}
        }
        v
    }

    fn apply_batch_item(
        &mut self,
        item: &BatchItemWire,
        out: &BatchOutcomeWire,
        v: &mut Vec<String>,
    ) {
        match (item, out) {
            (BatchItemWire::Pe(sub), BatchOutcomeWire::Registered { pe_ids, .. }) => {
                if let Some((name, id)) = pe_ids.first() {
                    self.learn_pe_commit(name, *id, Some(sub), v);
                }
            }
            (
                BatchItemWire::Workflow {
                    name,
                    code,
                    description,
                    pes,
                },
                BatchOutcomeWire::Registered {
                    pe_ids,
                    workflow_id,
                },
            ) => {
                for (sub, (n, id)) in pes.iter().zip(pe_ids.iter()) {
                    self.learn_pe_commit(n, *id, Some(sub), v);
                }
                if let Some((_, wid)) = workflow_id {
                    let members = pe_ids.iter().map(|(_, id)| *id).collect();
                    self.learn_wf_commit(name, *wid, code, description.as_deref(), members, v);
                }
            }
            // A failed item explicitly lists the member PEs that did
            // commit before the failure — exact, not Maybe.
            (item, BatchOutcomeWire::Failed { pe_ids, .. }) => {
                let subs: &[PeSubmission] = match item {
                    BatchItemWire::Pe(sub) => std::slice::from_ref(sub),
                    BatchItemWire::Workflow { pes, .. } => pes,
                };
                for (name, id) in pe_ids {
                    let sub = subs.iter().find(|s| &s.name == name);
                    self.learn_pe_commit(name, *id, sub, v);
                }
            }
        }
    }

    /// The oracle's main check: a full registry read must agree exactly
    /// with the model. Resolves Maybe rows as a side effect.
    pub fn check_registry(&mut self, pes: &[PeInfo], wfs: &[WorkflowInfo]) -> Vec<String> {
        let mut v = Vec::new();
        let mut seen_pes = std::collections::BTreeSet::new();
        for info in pes {
            if !seen_pes.insert(info.name.clone()) {
                v.push(format!("registry lists pe '{}' twice", info.name));
            }
            match self.pes.get_mut(&info.name) {
                None => v.push(format!(
                    "ghost pe '{}' (id {}): on the server but never acknowledged",
                    info.name, info.id
                )),
                Some(row) => {
                    row.presence = Presence::Present;
                    match row.id {
                        None => row.id = Some(info.id),
                        Some(id) if id != info.id => v.push(format!(
                            "pe '{}' id mismatch: model {id}, server {}",
                            info.name, info.id
                        )),
                        _ => {}
                    }
                    match &row.code {
                        None => row.code = Some(info.code.clone()),
                        Some(c) if *c != info.code => v.push(format!(
                            "pe '{}' code mismatch: acknowledged code was replaced",
                            info.name
                        )),
                        _ => {}
                    }
                    match &row.desc {
                        None => row.desc = Some(info.description.clone()),
                        Some(d) if *d != info.description => v.push(format!(
                            "pe '{}' description mismatch: model {:?}, server {:?}",
                            info.name, d, info.description
                        )),
                        _ => {}
                    }
                }
            }
        }
        let names: Vec<String> = self.pes.keys().cloned().collect();
        for name in names {
            if !seen_pes.contains(&name) {
                match self.pes[&name].presence {
                    Presence::Present => {
                        v.push(format!(
                            "lost pe '{name}': acknowledged but missing from the registry"
                        ));
                        self.pes.remove(&name); // don't re-report every check
                    }
                    Presence::Maybe => {
                        // Resolved: the ambiguous write did not commit.
                        self.pes.remove(&name);
                    }
                }
            }
        }

        let mut seen_wfs = std::collections::BTreeSet::new();
        for info in wfs {
            if !seen_wfs.insert(info.name.clone()) {
                v.push(format!("registry lists workflow '{}' twice", info.name));
            }
            match self.wfs.get_mut(&info.name) {
                None => v.push(format!(
                    "ghost workflow '{}' (id {}): on the server but never acknowledged",
                    info.name, info.id
                )),
                Some(row) => {
                    row.presence = Presence::Present;
                    match row.id {
                        None => row.id = Some(info.id),
                        Some(id) if id != info.id => v.push(format!(
                            "workflow '{}' id mismatch: model {id}, server {}",
                            info.name, info.id
                        )),
                        _ => {}
                    }
                    match &row.code {
                        None => row.code = Some(info.code.clone()),
                        Some(c) if *c != info.code => v.push(format!(
                            "workflow '{}' code mismatch",
                            info.name
                        )),
                        _ => {}
                    }
                    match &row.desc {
                        None => row.desc = Some(info.description.clone()),
                        Some(d) if *d != info.description => v.push(format!(
                            "workflow '{}' description mismatch: model {:?}, server {:?}",
                            info.name, d, info.description
                        )),
                        _ => {}
                    }
                    match &row.member_ids {
                        None => row.member_ids = Some(info.pe_ids.clone()),
                        Some(ids) if sorted(ids.clone()) != sorted(info.pe_ids.clone()) => {
                            v.push(format!(
                                "workflow '{}' member mismatch: model {:?}, server {:?}",
                                info.name, ids, info.pe_ids
                            ))
                        }
                        _ => {}
                    }
                }
            }
        }
        let names: Vec<String> = self.wfs.keys().cloned().collect();
        for name in names {
            if !seen_wfs.contains(&name) {
                match self.wfs[&name].presence {
                    Presence::Present => {
                        v.push(format!(
                            "lost workflow '{name}': acknowledged but missing from the registry"
                        ));
                        self.wfs.remove(&name);
                    }
                    Presence::Maybe => {
                        self.wfs.remove(&name);
                    }
                }
            }
        }
        v
    }

    /// Check a clean client-visible `GetPe` answer against the model.
    pub fn check_get_pe(&mut self, ident: &Ident, got: Result<&PeInfo, &str>) -> Vec<String> {
        let mut v = Vec::new();
        let known = self.resolve_pe_name(ident);
        match (known, got) {
            (Some(name), Ok(info)) => {
                let row = self.pes.get_mut(&name).expect("resolved");
                row.presence = Presence::Present;
                if info.name != name {
                    v.push(format!(
                        "GetPe({ident:?}) returned '{}' but the model resolves it to '{name}'",
                        info.name
                    ));
                }
                match row.id {
                    None => row.id = Some(info.id),
                    Some(id) if id != info.id => v.push(format!(
                        "GetPe('{name}') id mismatch: model {id}, server {}",
                        info.id
                    )),
                    _ => {}
                }
                if let Some(code) = &row.code {
                    if *code != info.code {
                        v.push(format!("GetPe('{name}') code mismatch"));
                    }
                }
            }
            (Some(name), Err(_)) => match self.pes[&name].presence {
                Presence::Present => v.push(format!(
                    "GetPe('{name}') errored but the row is acknowledged present"
                )),
                Presence::Maybe => {
                    self.pes.remove(&name);
                }
            },
            (None, Ok(info)) => v.push(format!(
                "GetPe({ident:?}) returned ghost pe '{}' (id {})",
                info.name, info.id
            )),
            (None, Err(_)) => {}
        }
        v
    }

    /// Present PE names in deterministic order (workload targeting).
    pub fn present_pe_names(&self) -> Vec<String> {
        self.pes
            .iter()
            .filter(|(_, r)| r.presence == Presence::Present)
            .map(|(n, _)| n.clone())
            .collect()
    }

    /// Known id of a present PE, if any.
    pub fn pe_id(&self, name: &str) -> Option<u64> {
        self.pes.get(name).and_then(|r| r.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netfault::{CallOutcome, CallRecord};

    fn pe_sub(name: &str, code: &str) -> PeSubmission {
        PeSubmission {
            name: name.into(),
            code: code.into(),
            description: Some(format!("{name} desc")),
        }
    }

    fn reg_pe_record(name: &str, code: &str, id: u64) -> CallRecord {
        CallRecord {
            seq: 0,
            fault: None,
            req: Request::RegisterPe {
                token: 1,
                pe: pe_sub(name, code),
            },
            outcome: CallOutcome::Value(Response::Registered {
                pe_ids: vec![(name.to_string(), id)],
                workflow_id: None,
            }),
        }
    }

    fn info(name: &str, code: &str, id: u64) -> PeInfo {
        PeInfo {
            id,
            name: name.into(),
            description: format!("{name} desc"),
            code: code.into(),
        }
    }

    #[test]
    fn acknowledged_pe_must_appear_in_reads() {
        let mut m = SimModel::new();
        assert!(m.apply(&reg_pe_record("A", "code-a", 7)).is_empty());
        // Server shows it: fine.
        assert!(m.check_registry(&[info("A", "code-a", 7)], &[]).is_empty());
        // Server lost it: violation.
        let v = m.check_registry(&[], &[]);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("lost pe 'A'"), "{v:?}");
    }

    #[test]
    fn ghost_rows_are_violations() {
        let mut m = SimModel::new();
        let v = m.check_registry(&[info("Ghost", "code", 3)], &[]);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("ghost pe 'Ghost'"), "{v:?}");
    }

    #[test]
    fn rejected_workflow_members_are_maybe_and_resolve_both_ways() {
        let mut m = SimModel::new();
        let rec = CallRecord {
            seq: 0,
            fault: None,
            req: Request::RegisterWorkflow {
                token: 1,
                name: "wf".into(),
                code: String::new(),
                description: None,
                pes: vec![pe_sub("M1", "c1"), pe_sub("M2", "c2")],
            },
            outcome: CallOutcome::Value(Response::Error("wal append: injected ENOSPC".into())),
        };
        assert!(m.apply(&rec).is_empty());
        assert_eq!(m.pes["M1"].presence, Presence::Maybe);
        // Server committed M1 before the failure, not M2: both resolve.
        assert!(m.check_registry(&[info("M1", "c1", 1)], &[]).is_empty());
        assert_eq!(m.pes["M1"].presence, Presence::Present);
        assert!(!m.pes.contains_key("M2"));
        // Once resolved Present, losing it later is a violation.
        let v = m.check_registry(&[], &[]);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("lost pe 'M1'"), "{v:?}");
    }

    #[test]
    fn get_pe_answers_are_checked_against_the_resolved_row() {
        let mut m = SimModel::new();
        m.apply(&reg_pe_record("A", "code-a", 7));
        let by_name = Ident::Name("A".into());
        let check = |m: &mut SimModel, ident: &Ident, got: Result<PeInfo, &str>| {
            m.check_get_pe(ident, got.as_ref().map_err(|e| *e))
        };
        assert!(check(&mut m, &by_name, Ok(info("A", "code-a", 7))).is_empty());
        assert!(check(&mut m, &Ident::Id(7), Ok(info("A", "code-a", 7))).is_empty());
        // Another row under the asked-for ident, a moved id, stale code,
        // a missing acknowledged row, a row nobody registered.
        for (ident, got, what) in [
            (&by_name, Ok(info("B", "code-a", 7)), "returned 'B'"),
            (&by_name, Ok(info("A", "code-a", 8)), "id mismatch"),
            (&by_name, Ok(info("A", "other", 7)), "code mismatch"),
            (&by_name, Err("not found"), "acknowledged present"),
            (&Ident::Id(99), Ok(info("Z", "z", 99)), "ghost pe 'Z'"),
        ] {
            let v = check(&mut m, ident, got);
            assert!(v.iter().any(|x| x.contains(what)), "{what}: {v:?}");
        }
        assert!(check(&mut m, &Ident::Id(99), Err("not found")).is_empty());
    }

    #[test]
    fn duplicate_reuse_keeps_first_code() {
        let mut m = SimModel::new();
        m.apply(&reg_pe_record("A", "first-code", 7));
        // Re-register with different code: server reuses id, keeps code.
        m.apply(&reg_pe_record("A", "second-code", 7));
        assert_eq!(m.pes["A"].code.as_deref(), Some("first-code"));
        // Server agreeing with first-code passes; second-code would fail.
        assert!(m.check_registry(&[info("A", "first-code", 7)], &[]).is_empty());
        let v = m.check_registry(&[info("A", "second-code", 7)], &[]);
        assert!(v.iter().any(|x| x.contains("code mismatch")), "{v:?}");
    }

    #[test]
    fn id_change_is_a_violation() {
        let mut m = SimModel::new();
        m.apply(&reg_pe_record("A", "c", 7));
        let v = m.apply(&reg_pe_record("A", "c", 9));
        assert!(v.iter().any(|x| x.contains("changed id")), "{v:?}");
    }

    #[test]
    fn remove_all_clears_everything() {
        let mut m = SimModel::new();
        m.apply(&reg_pe_record("A", "c", 1));
        let rec = CallRecord {
            seq: 1,
            fault: None,
            req: Request::RemoveAll { token: 1 },
            outcome: CallOutcome::Value(Response::Ok),
        };
        m.apply(&rec);
        assert!(m.pes.is_empty() && m.wfs.is_empty());
        assert!(m.check_registry(&[], &[]).is_empty());
    }

    #[test]
    fn batch_failed_item_commits_exactly_the_listed_members() {
        let mut m = SimModel::new();
        let rec = CallRecord {
            seq: 0,
            fault: None,
            req: Request::RegisterBatch {
                token: 1,
                items: vec![BatchItemWire::Workflow {
                    name: "wf".into(),
                    code: String::new(),
                    description: None,
                    pes: vec![pe_sub("B1", "c1"), pe_sub("B2", "c2")],
                }],
            },
            outcome: CallOutcome::Value(Response::BatchRegistered {
                outcomes: vec![BatchOutcomeWire::Failed {
                    pe_ids: vec![("B1".into(), 4)],
                    error: "duplicate name".into(),
                }],
            }),
        };
        assert!(m.apply(&rec).is_empty());
        assert_eq!(m.pes["B1"].presence, Presence::Present);
        assert_eq!(m.pes["B1"].id, Some(4));
        assert!(!m.pes.contains_key("B2"));
        assert!(!m.wfs.contains_key("wf"));
    }
}
