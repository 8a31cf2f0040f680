//! E6 — regenerate **Table II / Fig. 6**: the registry's database schema,
//! with a live integrity demonstration.
//!
//! ```text
//! cargo run -p laminar-bench --release --bin table2_schema
//! ```

use laminar_registry::{schema_ddl, table_descriptions, NewPe, NewWorkflow, Registry};

fn main() {
    println!("# Table II — key elements of the updated database schema\n");
    println!("{:<20} Description", "Table Name");
    for t in table_descriptions() {
        println!("{:<20} {}", t.name, t.description);
    }

    println!("\n# Fig. 6 — updated schema (DDL form)\n");
    println!("{}", schema_ddl());

    // Live integrity demonstration.
    println!("# Live integrity checks\n");
    let reg = Registry::new();
    let user = reg.register_user("demo", "pw").expect("register");
    let pe = reg
        .add_pe(NewPe {
            user_id: user,
            name: "IsPrime".into(),
            description: "checks primality".into(),
            code: "class IsPrime: pass".into(),
            description_embedding: "[]".into(),
            spt_embedding: "[]".into(),
        })
        .expect("pe insert");
    let wf = reg
        .add_workflow(NewWorkflow {
            user_id: user,
            name: "isprime_wf".into(),
            description: String::new(),
            code: String::new(),
            pe_ids: vec![pe],
        })
        .expect("wf insert");
    println!("insert User/PE/Workflow               : ok (ids {user}, {pe}, {wf})");
    println!(
        "UNIQUE(User.username)                 : {}",
        reg.register_user("demo", "x").is_err()
    );
    println!(
        "FK  Workflow→PE (delete referenced PE): rejected = {}",
        reg.remove_pe(pe).is_err()
    );
    println!(
        "FK  Execution→Workflow (bad id)       : rejected = {}",
        reg.add_execution(9999, user, "simple", "1").is_err()
    );
    let ex = reg.add_execution(wf, user, "multi", "10").expect("execution");
    let resp = reg
        .finish_execution(ex, "the num 751 is prime", laminar_registry::ExecutionStatus::Completed)
        .expect("response");
    println!("Execution + Response rows             : ok (ids {ex}, {resp})");
    println!(
        "index idx_pe_name lookup              : {}",
        reg.get_pe_by_name("isprime").is_ok()
    );
}
