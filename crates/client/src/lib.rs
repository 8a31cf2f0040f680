//! `laminar-client` — the Laminar client library and CLI (paper §IV-A/B,
//! Table I, Fig. 5).
//!
//! Every function of the paper's Table I is a method on
//! [`LaminarClient`]:
//!
//! | Table I | method | status in paper |
//! |---|---|---|
//! | `register` | [`LaminarClient::register`] | |
//! | `login` | [`LaminarClient::login`] | |
//! | `register_PE` | [`LaminarClient::register_pe`] | new |
//! | `register_Workflow` | [`LaminarClient::register_workflow`] | improved |
//! | `get_PE` | [`LaminarClient::get_pe`] | |
//! | `get_Workflow` | [`LaminarClient::get_workflow`] | |
//! | `get_PEs_By_Workflow` | [`LaminarClient::get_pes_by_workflow`] | |
//! | `get_Registry` | [`LaminarClient::get_registry`] | |
//! | `describe` | [`LaminarClient::describe`] | |
//! | `update_PE_Description` | [`LaminarClient::update_pe_description`] | new |
//! | `update_Workflow_Description` | [`LaminarClient::update_workflow_description`] | new |
//! | `remove_PE` | [`LaminarClient::remove_pe`] | |
//! | `remove_Workflow` | [`LaminarClient::remove_workflow`] | |
//! | `remove_All` | [`LaminarClient::remove_all`] | new |
//! | `search_Registry_Literal` | [`LaminarClient::search_registry_literal`] | improved |
//! | `search_Registry_Semantic` | [`LaminarClient::search_registry_semantic`] | improved |
//! | `code_Recommendation` | [`LaminarClient::code_recommendation`] | new |
//! | `run` | [`LaminarClient::run`] | improved |
//! | `run_multiprocess` | [`LaminarClient::run_multiprocess`] | new |
//! | `run_dynamic` | [`LaminarClient::run_dynamic`] | new |
//!
//! Each method builds its wire [`laminar_server::Request`] and matches the
//! one [`laminar_server::Response`] variant it expects. What the client
//! needs to know about an endpoint beyond that — whether a timed-out call
//! may be re-sent — it reads from the protocol's endpoint table
//! ([`laminar_server::protocol::ENDPOINTS`]), the same rows the server's
//! degraded gate and metrics read.
//!
//! The interactive CLI of Fig. 5 lives in [`cli`]; it is transcript-testable
//! (each input line returns its output text).

pub mod cli;
pub mod client;
pub mod extract;

pub use cli::Cli;
pub use client::{ClientError, HealthReport, LaminarClient, RegisteredWorkflow, RetryPolicy};
pub use extract::extract_pes_from_source;
pub use laminar_server::protocol::RunOutput;
