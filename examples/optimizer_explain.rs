//! A tour of the optimizer (Section 4): shows the desugared NRC, the
//! rewrite rules firing, and the final plans for the paper's motivating
//! queries and both local join operators — including what changes when
//! individual optimizations are disabled (the ablations `report t1_pushdown` measures; see
//! `crates/bench/src/bin/report.rs`).
//!
//! ```sh
//! cargo run --example optimizer_explain
//! ```

use bio_data::{GdbConfig, GenBankConfig};
use kleisli::{bio_federation, Session};
use kleisli_core::LatencyModel;
use kleisli_opt::OptConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let fed = bio_federation(
        &GdbConfig {
            loci: 200,
            seed: 2,
            ..Default::default()
        },
        &GenBankConfig {
            extra_entries: 20,
            seed: 2,
            ..Default::default()
        },
        LatencyModel::instant(),
        LatencyModel::instant(),
    )?;
    let mut session = Session::new();
    session.register_driver(fed.gdb.clone());
    session.register_driver(fed.genbank.clone());
    session.bind_value("PUBS", bio_data::publications(20, 3));

    // 1. Loci22: joins migrate to the server.
    let loci22 = r#"{[locus_symbol = x, genbank_ref = y] |
        [locus_symbol = \x, locus_id = \a, ...] <- GDB-Tab("locus"),
        [genbank_ref = \y, object_id = a, object_class_key = 1, ...] <- GDB-Tab("object_genbank_eref"),
        [loc_cyto_chrom_num = "22", locus_cyto_location_id = a, ...] <- GDB-Tab("locus_cyto_location")}"#;
    println!("########## Loci22: SQL migration ##########\n");
    println!("{}", session.explain(loci22)?);

    // Ablation: how many server requests does each configuration ship?
    for (label, config) in [
        ("full optimizer", OptConfig::default()),
        (
            "no pushdown",
            OptConfig {
                enable_pushdown: false,
                ..OptConfig::default()
            },
        ),
        ("no optimization at all", OptConfig::none()),
    ] {
        session.set_opt_config(config);
        let before = session.driver_metrics("GDB")?;
        let v = session.query(loci22)?;
        let m = session.driver_metrics("GDB")?.since(&before);
        println!(
            "{label:>24}: {} request(s), {} rows shipped, result {} rows",
            m.requests,
            m.rows_shipped,
            v.len().unwrap_or(0)
        );
    }
    session.set_opt_config(OptConfig::default());

    // 2. Vertical loop fusion (R1) on a producer/consumer pipeline.
    println!("\n########## R1 vertical fusion ##########\n");
    println!(
        "{}",
        session.explain(
            r"{[t = q.t, n = q.y + 1] |
               \q <- {[t = p.title, y = p.year] | \p <- PUBS}}"
        )?
    );

    // 3. Filter promotion (R3): a loop-invariant test hoists out.
    println!("########## R3 filter promotion ##########\n");
    println!(
        "{}",
        session.explain(r"\c => {p.title | \p <- PUBS, c = 22}")?
    );

    // 4. The Entrez path migration.
    println!("########## Entrez path migration ##########\n");
    println!(
        "{}",
        session.explain(
            r#"{x.seq.descr | \x <- GenBank([db = "na", select = "organism \"Homo sapiens\""])}"#
        )?
    );

    // 5. Local joins: the join rule set picks the operator. An equality
    //    becomes the keys of an INDEXED-NL-JOIN; a theta-join has none
    //    and is a BLOCKED-NL-JOIN. Either way the value is the naive one.
    println!("########## Local join operators ##########\n");
    for (label, src) in [
        (
            "equi-join",
            r"{[a = p.title, b = q.title] | \p <- PUBS, \q <- PUBS, p.year = q.year}",
        ),
        (
            "theta-join",
            r"{[a = p.title, b = q.title] | \p <- PUBS, \q <- PUBS, p.year < q.year}",
        ),
    ] {
        println!("{}", session.explain(src)?);
        let v = session.query(src)?;
        session.set_opt_config(OptConfig::none());
        let naive = session.query(src)?;
        session.set_opt_config(OptConfig::default());
        assert_eq!(v, naive, "{label}: the operator must not change the value");
        println!(
            "{label}: {} rows, equal to the unoptimized plan's\n",
            v.len().unwrap_or(0)
        );
    }
    Ok(())
}
