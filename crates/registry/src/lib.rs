//! `laminar-registry` — the Laminar registry (paper §III, §IV-D).
//!
//! The paper's registry is a MySQL database whose schema (Fig. 6,
//! Table II) stores users, workflows, processing elements, executions and
//! responses, with Python code and embeddings held in character large
//! objects. This crate is the in-memory relational substitute: the same
//! tables, keys, unique and secondary indexes, foreign-key integrity rules
//! and CLOB-style unbounded text columns, plus JSON snapshot persistence.
//!
//! What it deliberately does *not* replicate is the SQL wire protocol — no
//! experiment in the paper exercises it.
//!
//! ```
//! use laminar_registry::{Registry, NewPe};
//!
//! let reg = Registry::new();
//! let user = reg.register_user("rosa", "secret").unwrap();
//! let pe = reg
//!     .add_pe(NewPe {
//!         user_id: user,
//!         name: "IsPrime".into(),
//!         description: "checks whether a number is prime".into(),
//!         code: "class IsPrime(IterativePE): ...".into(),
//!         description_embedding: String::new(),
//!         spt_embedding: String::new(),
//!     })
//!     .unwrap();
//! assert_eq!(reg.get_pe(pe).unwrap().name, "IsPrime");
//! ```

pub mod error;
pub mod iofault;
pub mod rows;
pub mod schema;
pub mod store;
pub mod wal;

pub use error::RegistryError;
pub use iofault::{
    FaultEvent, FaultHook, FaultKind, FaultMode, FaultSpec, Induced, IoFaultHook, IoFaultInjector,
    IoSite, SiteCounter,
};
pub use rows::{
    ExecutionRow, ExecutionStatus, NewPe, NewWorkflow, PeRow, ResponseRow, UserRow, WorkflowRow,
};
pub use schema::{schema_ddl, table_descriptions};
pub use store::{
    CompactStats, PeOutcome, PersistOptions, PersistSnapshot, RegistrationUnit, Registry,
    RegistrySnapshot, SearchTarget, UnitOutcome, UnitsCommitted, DISCARDED_WAL_FILE,
    SEALED_WAL_FILE, SNAPSHOT_FILE, WAL_FILE,
};
pub use wal::SyncPolicy;
