//! The registry service: registration — the one write path — reads,
//! description updates and removals.

use crate::index_cache::content_hash;
use crate::indexes::{Analysis, EntryKind, IndexRow};
use crate::protocol::{
    BatchItemWire, BatchOutcomeWire, Ident, PeInfo, PeSubmission, Response, SearchScope,
    WorkflowInfo,
};
use crate::server::{LaminarServer, ServerError};
use laminar_registry::{NewPe, NewWorkflow, PeRow, RegistrationUnit, UnitsCommitted, WorkflowRow};
use std::collections::HashMap;
use std::sync::Arc;

impl LaminarServer {
    /// `RegisterPe` / `RegisterWorkflow`: a batch of one, its outcome
    /// mapped back to the single-registration reply shapes.
    pub(crate) fn register(&self, user: u64, item: BatchItemWire) -> Result<Response, ServerError> {
        let outcome = self
            .register_units(user, vec![item])?
            .pop()
            .expect("one outcome per item");
        Ok(match outcome {
            BatchOutcomeWire::Registered {
                pe_ids,
                workflow_id,
            } => Response::Registered {
                pe_ids,
                workflow_id,
            },
            BatchOutcomeWire::Failed { error, .. } => Response::Error(error),
        })
    }

    /// `RegisterBatch`: one outcome per item, in submission order.
    pub(crate) fn register_batch(
        &self,
        user: u64,
        items: Vec<BatchItemWire>,
    ) -> Result<Response, ServerError> {
        let outcomes = self.register_units(user, items)?;
        Ok(Response::BatchRegistered { outcomes })
    }

    /// The write path. Every registration — `RegisterPe` and
    /// `RegisterWorkflow` as a batch of one, `RegisterBatch` as sent — is
    /// a list of units that is
    ///
    /// 1. **analysed** once (no locks held): per submission, its
    ///    description — as sent, else written by codet5 (§IV-C) — and then
    ///    [`Analysis::of`]: the unixcoder embedding, the reacc embedding
    ///    and, for a PE, the SPT features (§VI);
    /// 2. **committed** once ([`Registry::add_units`]): every unit staged
    ///    under one write-lock hold, all rows — what the user wrote, no
    ///    vector — appended as one WAL frame (one fsync), then applied;
    /// 3. **published** once: every created row through one bulk upsert —
    ///    one generation bump, the engine handed each PE's own SPT vector.
    ///
    /// Outcomes are per item (partial success): re-registering a PE name
    /// the user owns reuses that PE's id, a duplicate workflow name fails
    /// the item while its member PEs stay. The outer `Err` is reserved for
    /// WAL failure, in which case nothing was committed.
    ///
    /// [`Registry::add_units`]: laminar_registry::Registry::add_units
    fn register_units(
        &self,
        user: u64,
        items: Vec<BatchItemWire>,
    ) -> Result<Vec<BatchOutcomeWire>, ServerError> {
        /// A submission with its description settled: what its registry
        /// row holds.
        struct Submitted {
            name: String,
            code: String,
            description: String,
        }
        struct SubmittedItem {
            pes: Vec<Submitted>,
            workflow: Option<Submitted>,
        }
        let item_count = items.len();

        // Stage 1: descriptions and analysis — pure, before any lock is
        // taken; duplicates waste some of it.
        let analyse_start = std::time::Instant::now();
        let submit_pe = |pe: PeSubmission| Submitted {
            description: match pe.description {
                Some(d) if !d.is_empty() => d,
                _ => self.codet5.describe_pe(&pe.code),
            },
            name: pe.name,
            code: pe.code,
        };
        let mut submitted: Vec<SubmittedItem> = items
            .into_iter()
            .map(|item| match item {
                BatchItemWire::Pe(pe) => SubmittedItem {
                    pes: vec![submit_pe(pe)],
                    workflow: None,
                },
                BatchItemWire::Workflow {
                    name,
                    code,
                    description,
                    pes,
                } => SubmittedItem {
                    pes: pes.into_iter().map(submit_pe).collect(),
                    // Described below when sent without a description.
                    workflow: Some(Submitted {
                        name,
                        code,
                        description: description.unwrap_or_default(),
                    }),
                },
            })
            .collect();

        // Describe the workflows sent without a description from the
        // member codes their rows will reference — the registered row's
        // code for a name the user owns (looked up per member, only for
        // these workflows), else the first submission of the name here,
        // which the commit creates.
        let mut first_code: HashMap<String, &str> = HashMap::new();
        for SubmittedItem { pes, workflow } in &mut submitted {
            let pes: &[Submitted] = pes;
            for pe in pes {
                first_code.entry(pe.name.to_lowercase()).or_insert(&pe.code);
            }
            let Some(wf) = workflow.as_mut().filter(|w| w.description.is_empty()) else {
                continue;
            };
            let codes: Vec<String> = pes
                .iter()
                .map(|pe| {
                    self.registry
                        .get_pe_by_name_for_user(user, &pe.name)
                        .map(|row| row.code)
                        .unwrap_or_else(|_| first_code[&pe.name.to_lowercase()].to_string())
                })
                .collect();
            let codes: Vec<&str> = codes.iter().map(String::as_str).collect();
            wf.description = self.codet5.describe_workflow(&wf.name, &codes);
        }
        let analyse = |kind: EntryKind, s: &Submitted| Analysis::of(kind, &s.code, &s.description);
        let analysed: Vec<(Vec<Analysis>, Option<Analysis>)> = submitted
            .iter()
            .map(|item| {
                (
                    item.pes
                        .iter()
                        .map(|pe| analyse(EntryKind::Pe, pe))
                        .collect(),
                    (item.workflow.as_ref()).map(|wf| analyse(EntryKind::Workflow, wf)),
                )
            })
            .collect();
        let analyse_elapsed = analyse_start.elapsed();

        // Stage 2: one lock hold, one WAL frame.
        let commit_start = std::time::Instant::now();
        let units: Vec<RegistrationUnit> = submitted
            .iter()
            .map(|item| RegistrationUnit {
                pes: (item.pes.iter())
                    .map(|pe| NewPe {
                        user_id: user,
                        name: pe.name.clone(),
                        description: pe.description.clone(),
                        code: pe.code.clone(),
                        description_embedding: String::new(),
                        spt_embedding: String::new(),
                    })
                    .collect(),
                workflow: item.workflow.as_ref().map(|wf| NewWorkflow {
                    user_id: user,
                    name: wf.name.clone(),
                    description: wf.description.clone(),
                    code: wf.code.clone(),
                    // Resolved per unit inside `add_units`.
                    pe_ids: Vec::new(),
                }),
            })
            .collect();
        let UnitsCommitted { outcomes, fsynced } = self.registry.add_units(units)?;
        let commit_elapsed = commit_start.elapsed();

        // Stage 3: publish every *created* row (a reused PE is already
        // indexed) in one snapshot swap.
        let index_start = std::time::Instant::now();
        let row = |id: u64, s: &Submitted, a: Analysis| {
            a.into_row(id, content_hash(&s.code, &s.description), &s.name, &s.code)
        };
        let mut rows: Vec<IndexRow> = Vec::new();
        for ((outcome, item), (pe_vectors, wf_vectors)) in
            outcomes.iter().zip(&submitted).zip(analysed)
        {
            for ((po, pe), a) in outcome.pes.iter().zip(&item.pes).zip(pe_vectors) {
                if po.created {
                    rows.push(row(po.id, pe, a));
                }
            }
            if let (Some((_, id)), Some(wf), Some(a)) =
                (&outcome.workflow, &item.workflow, wf_vectors)
            {
                rows.push(row(*id, wf, a));
            }
        }
        let created_rows = rows.len() as u64;
        self.indexes.bulk_upsert(rows);
        self.sync_index_gauges();
        let index_elapsed = index_start.elapsed();

        let failed = outcomes.iter().filter(|o| o.error.is_some()).count() as u64;
        let ingest = &self.metrics.groups.ingest;
        ingest.batches.inc();
        ingest.items.add(item_count as u64);
        ingest.items_failed.add(failed);
        ingest.rows.add(created_rows);
        ingest.batch_size.record_value(item_count as u64);
        if fsynced {
            // Each created row shared the frame's one fsync instead of
            // paying its own.
            ingest.fsyncs_saved.add(created_rows.saturating_sub(1));
        }
        ingest.analyze_us.record(analyse_elapsed);
        ingest.commit_us.record(commit_elapsed);
        ingest.index_us.record(index_elapsed);

        Ok(outcomes
            .into_iter()
            .map(|o| {
                let pe_ids: Vec<(String, u64)> =
                    o.pes.into_iter().map(|p| (p.name, p.id)).collect();
                match o.error {
                    None => BatchOutcomeWire::Registered {
                        pe_ids,
                        workflow_id: o.workflow,
                    },
                    Some(e) => BatchOutcomeWire::Failed {
                        pe_ids,
                        error: e.to_string(),
                    },
                }
            })
            .collect())
    }

    /// `GetPe`.
    pub(crate) fn get_pe(&self, ident: &Ident) -> Result<Response, ServerError> {
        Ok(Response::Pe(pe_info(&*self.resolve_pe(ident)?)))
    }

    /// `GetWorkflow`.
    pub(crate) fn get_workflow(&self, ident: &Ident) -> Result<Response, ServerError> {
        Ok(Response::Workflow(wf_info(&*self.resolve_workflow(ident)?)))
    }

    /// `GetPesByWorkflow`: a workflow's members, in order.
    pub(crate) fn get_pes_by_workflow(&self, ident: &Ident) -> Result<Response, ServerError> {
        let wf = self.resolve_workflow(ident)?;
        let pes = self.registry.pe_rows_by_workflow(wf.id)?;
        Ok(Response::Pes(pes.iter().map(|p| pe_info(p)).collect()))
    }

    /// `GetRegistry`: every PE and workflow.
    pub(crate) fn get_registry(&self) -> Response {
        Response::Registry {
            pes: self.registry.pe_rows().iter().map(|p| pe_info(p)).collect(),
            workflows: (self.registry.workflow_rows().iter())
                .map(|w| wf_info(w))
                .collect(),
        }
    }

    /// `Describe`: description and source. `Both` resolves a PE first and
    /// falls back to a workflow.
    pub(crate) fn describe(
        &self,
        scope: SearchScope,
        ident: &Ident,
    ) -> Result<Response, ServerError> {
        let pe = || {
            self.resolve_pe(ident)
                .map(|pe| format!("{}\n\n{}", pe.description, pe.code))
        };
        let workflow = || {
            self.resolve_workflow(ident)
                .map(|wf| format!("{}\n\n{}", wf.description, wf.code))
        };
        Ok(Response::Description(match scope {
            SearchScope::Pe => pe()?,
            SearchScope::Workflow => workflow()?,
            SearchScope::Both => pe().or_else(|_| workflow())?,
        }))
    }

    /// `UpdatePeDescription` / `UpdateWorkflowDescription`: store the new
    /// text, then publish its embedding — the only indexed value a
    /// description feeds — in one write.
    pub(crate) fn update_description(
        &self,
        kind: EntryKind,
        ident: &Ident,
        description: &str,
    ) -> Result<Response, ServerError> {
        let id = match kind {
            EntryKind::Pe => {
                let id = self.resolve_pe(ident)?.id;
                self.registry.update_pe_description(id, description)?;
                id
            }
            EntryKind::Workflow => {
                let id = self.resolve_workflow(ident)?.id;
                self.registry.update_workflow_description(id, description)?;
                id
            }
        };
        let desc = self.unixcoder.embed_text(description);
        self.indexes.set_description(id, kind, &desc);
        Ok(Response::Ok)
    }

    /// `RemovePe`: from the registry, then from the indexes.
    pub(crate) fn remove_pe(&self, ident: &Ident) -> Result<Response, ServerError> {
        let pe = self.resolve_pe(ident)?;
        self.registry.remove_pe(pe.id)?;
        self.indexes.remove(pe.id, EntryKind::Pe);
        self.sync_index_gauges();
        Ok(Response::Ok)
    }

    /// `RemoveWorkflow`: from the registry, then from the indexes.
    pub(crate) fn remove_workflow(&self, ident: &Ident) -> Result<Response, ServerError> {
        let wf = self.resolve_workflow(ident)?;
        self.registry.remove_workflow(wf.id)?;
        self.indexes.remove(wf.id, EntryKind::Workflow);
        self.sync_index_gauges();
        Ok(Response::Ok)
    }

    /// `RemoveAll`.
    pub(crate) fn remove_all(&self) -> Result<Response, ServerError> {
        self.registry.remove_all()?;
        self.indexes.clear();
        self.sync_index_gauges();
        Ok(Response::Ok)
    }

    /// The PE `ident` names, as the registry holds it: shared, not a copy
    /// of its embedding columns.
    pub(crate) fn resolve_pe(&self, ident: &Ident) -> Result<Arc<PeRow>, ServerError> {
        Ok(match ident {
            Ident::Id(id) => self.registry.pe_row(*id)?,
            Ident::Name(name) => self.registry.pe_row_by_name(name)?,
        })
    }

    /// The workflow `ident` names, shared ([`resolve_pe`](Self::resolve_pe)).
    pub(crate) fn resolve_workflow(&self, ident: &Ident) -> Result<Arc<WorkflowRow>, ServerError> {
        Ok(match ident {
            Ident::Id(id) => self.registry.workflow_row(*id)?,
            Ident::Name(name) => self.registry.workflow_row_by_name(name)?,
        })
    }
}

pub(crate) fn pe_info(pe: &PeRow) -> PeInfo {
    PeInfo {
        id: pe.id,
        name: pe.name.clone(),
        description: pe.description.clone(),
        code: pe.code.clone(),
    }
}

pub(crate) fn wf_info(wf: &WorkflowRow) -> WorkflowInfo {
    WorkflowInfo {
        id: wf.id,
        name: wf.name.clone(),
        description: wf.description.clone(),
        code: wf.code.clone(),
        pe_ids: wf.pe_ids.clone(),
    }
}
