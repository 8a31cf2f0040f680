//! Schema description — the reproduction of Fig. 6 / Table II.
//!
//! `schema_ddl` renders the schema as MySQL-flavoured DDL; the evaluation
//! binary `table2_schema` prints it next to Table II's prose so a reviewer
//! can diff the two. It is the paper's DDL: its two embedding columns are
//! derived data here, which `rows` does not store.

/// One table's summary row for Table II.
pub struct TableDescription {
    pub name: &'static str,
    pub description: &'static str,
}

/// Table II of the paper, verbatim structure.
pub fn table_descriptions() -> Vec<TableDescription> {
    vec![
        TableDescription {
            name: "User",
            description: "Stores user information. Each user can be associated with multiple \
                          workflows, ensuring a one-to-many relationship.",
        },
        TableDescription {
            name: "Workflow",
            description: "Contains details about each workflow. Each workflow can have multiple \
                          PEs and can be executed multiple times by different users.",
        },
        TableDescription {
            name: "ProcessingElement",
            description: "Stores information about the processing elements. PEs are reusable \
                          components that can be associated with multiple workflows.",
        },
        TableDescription {
            name: "Execution",
            description: "Tracks the execution of workflows. It includes execution-specific \
                          details. Each execution record is linked to a workflow and user.",
        },
        TableDescription {
            name: "Response",
            description: "Captures the results of workflow executions. Each response is linked \
                          to a specific execution.",
        },
    ]
}

/// MySQL-flavoured DDL for the normalised schema (Fig. 6), including the
/// CLOB columns (`LONGTEXT`) and the secondary indexes the paper added for
/// performance.
pub fn schema_ddl() -> String {
    r#"CREATE TABLE User (
    id              BIGINT PRIMARY KEY AUTO_INCREMENT,
    username        VARCHAR(255) NOT NULL,
    password_hash   BIGINT NOT NULL,
    created_seq     BIGINT NOT NULL,
    UNIQUE INDEX idx_user_username (username)
);

CREATE TABLE ProcessingElement (
    id                     BIGINT PRIMARY KEY AUTO_INCREMENT,
    user_id                BIGINT NOT NULL,
    name                   VARCHAR(255) NOT NULL,
    description            LONGTEXT,
    code                   LONGTEXT NOT NULL,       -- CLOB (was VARCHAR in 1.0)
    description_embedding  LONGTEXT,                -- JSON embedding (CLOB)
    spt_embedding          LONGTEXT,                -- Aroma SPT features, JSON (CLOB)
    FOREIGN KEY (user_id) REFERENCES User(id),
    INDEX idx_pe_name (name),
    INDEX idx_pe_user (user_id),
    UNIQUE INDEX idx_pe_user_name (user_id, name)
);

CREATE TABLE Workflow (
    id                     BIGINT PRIMARY KEY AUTO_INCREMENT,
    user_id                BIGINT NOT NULL,
    name                   VARCHAR(255) NOT NULL,
    description            LONGTEXT,
    code                   LONGTEXT NOT NULL,
    description_embedding  LONGTEXT,
    spt_embedding          LONGTEXT,
    FOREIGN KEY (user_id) REFERENCES User(id),
    INDEX idx_wf_name (name),
    INDEX idx_wf_user (user_id),
    UNIQUE INDEX idx_wf_user_name (user_id, name)
);

CREATE TABLE WorkflowPe (
    workflow_id  BIGINT NOT NULL,
    pe_id        BIGINT NOT NULL,
    position     INT NOT NULL,
    PRIMARY KEY (workflow_id, pe_id, position),
    FOREIGN KEY (workflow_id) REFERENCES Workflow(id),
    FOREIGN KEY (pe_id) REFERENCES ProcessingElement(id)
);

CREATE TABLE Execution (
    id             BIGINT PRIMARY KEY AUTO_INCREMENT,
    workflow_id    BIGINT NOT NULL,
    user_id        BIGINT NOT NULL,
    mapping        VARCHAR(32) NOT NULL,
    input          LONGTEXT,
    status         ENUM('Submitted','Running','Completed','Failed') NOT NULL,
    submitted_seq  BIGINT NOT NULL,
    FOREIGN KEY (workflow_id) REFERENCES Workflow(id),
    FOREIGN KEY (user_id) REFERENCES User(id),
    INDEX idx_exec_workflow (workflow_id)
);

CREATE TABLE Response (
    id            BIGINT PRIMARY KEY AUTO_INCREMENT,
    execution_id  BIGINT NOT NULL,
    output        LONGTEXT,
    status        ENUM('Submitted','Running','Completed','Failed') NOT NULL,
    FOREIGN KEY (execution_id) REFERENCES Execution(id),
    INDEX idx_resp_execution (execution_id)
);
"#
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_has_five_tables() {
        let t = table_descriptions();
        assert_eq!(t.len(), 5);
        let names: Vec<_> = t.iter().map(|d| d.name).collect();
        assert_eq!(
            names,
            vec!["User", "Workflow", "ProcessingElement", "Execution", "Response"]
        );
    }

    #[test]
    fn ddl_covers_schema_elements() {
        let ddl = schema_ddl();
        for table in [
            "CREATE TABLE User",
            "CREATE TABLE ProcessingElement",
            "CREATE TABLE Workflow",
            "CREATE TABLE WorkflowPe",
            "CREATE TABLE Execution",
            "CREATE TABLE Response",
        ] {
            assert!(ddl.contains(table), "missing {table}");
        }
        assert!(ddl.contains("spt_embedding"), "Fig. 6's sptEmbedding column");
        assert!(ddl.matches("LONGTEXT").count() >= 8, "CLOB columns");
        assert!(ddl.matches("FOREIGN KEY").count() >= 6, "FK integrity");
        assert!(ddl.matches("INDEX").count() >= 8, "indexes for performance");
    }
}
