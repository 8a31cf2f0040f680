//! Row types for the Fig. 6 schema.
//!
//! A row keeps what its user wrote. `code` and `description` are
//! CLOB-style columns: unbounded `String`s (the paper's §IV-D change from
//! bounded VARCHAR to character large objects). Fig. 6's two embedding
//! columns are derived data here: the server analyses them from `code` and
//! `description` and keeps them in its indexes and `index.cache`.

use serde::{Deserialize, Serialize};

/// `User` table (Table II): one row per registered user.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UserRow {
    pub id: u64,
    pub username: String,
    /// Salted hash — see `store::hash_password`. NOT cryptographic; a
    /// stand-in for the paper's server-side auth.
    pub password_hash: u64,
    /// Monotonic registration sequence number (stands in for created_at).
    pub created_seq: u64,
}

/// `ProcessingElement` table: reusable components, possibly shared by many
/// workflows (many-to-many through `WorkflowPe`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PeRow {
    pub id: u64,
    pub user_id: u64,
    pub name: String,
    pub description: String,
    /// Full Python source (CLOB).
    pub code: String,
}

/// `Workflow` table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkflowRow {
    pub id: u64,
    pub user_id: u64,
    pub name: String,
    pub description: String,
    pub code: String,
    /// Member PEs in graph order (the `WorkflowPe` association rows).
    pub pe_ids: Vec<u64>,
}

/// Execution lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecutionStatus {
    Submitted,
    Running,
    Completed,
    Failed,
}

/// `Execution` table: one row per workflow run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionRow {
    pub id: u64,
    pub workflow_id: u64,
    pub user_id: u64,
    /// Mapping name: "simple" | "multi" | "dynamic".
    pub mapping: String,
    /// Run input rendered as text (iterations or data list).
    pub input: String,
    pub status: ExecutionStatus,
    pub submitted_seq: u64,
}

/// `Response` table: captured output of one execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResponseRow {
    pub id: u64,
    pub execution_id: u64,
    /// Captured output stream (CLOB).
    pub output: String,
    pub status: ExecutionStatus,
}

/// Insertion payload for a PE.
#[derive(Debug, Clone)]
pub struct NewPe {
    pub user_id: u64,
    pub name: String,
    pub description: String,
    pub code: String,
    /// Unused, frozen-benchmark names: the registry stores no embedding
    /// and never reads them. `crates/benchmark` still sets them; its next
    /// PR removes them.
    pub description_embedding: String,
    pub spt_embedding: String,
}

/// Insertion payload for a workflow.
#[derive(Debug, Clone)]
pub struct NewWorkflow {
    pub user_id: u64,
    pub name: String,
    pub description: String,
    pub code: String,
    pub pe_ids: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_serde_roundtrip() {
        let pe = PeRow {
            id: 1,
            user_id: 2,
            name: "IsPrime".into(),
            description: "d".into(),
            code: "class IsPrime: pass".into(),
        };
        let json = serde_json::to_string(&pe).unwrap();
        assert_eq!(serde_json::from_str::<PeRow>(&json).unwrap(), pe);

        let ex = ExecutionRow {
            id: 1,
            workflow_id: 2,
            user_id: 3,
            mapping: "multi".into(),
            input: "10".into(),
            status: ExecutionStatus::Running,
            submitted_seq: 4,
        };
        let json = serde_json::to_string(&ex).unwrap();
        assert_eq!(serde_json::from_str::<ExecutionRow>(&json).unwrap(), ex);
    }

    #[test]
    fn clob_columns_hold_large_text() {
        // The §IV-D motivation: code larger than a VARCHAR limit.
        let big = "x = 1\n".repeat(100_000);
        let pe = PeRow {
            id: 1,
            user_id: 1,
            name: "Big".into(),
            description: String::new(),
            code: big.clone(),
        };
        assert_eq!(pe.code.len(), big.len());
    }
}
