//! The "impossible" DOE query (Section 3 of the paper):
//!
//! > Find information on the known DNA sequences on human chromosome 22,
//! > as well as information on homologous sequences from other organisms.
//!
//! This example reproduces the whole pipeline of Figure 2: a parameterized
//! multidatabase user-view (the Figure-1 form) over the simulated GDB
//! (Sybase) and GenBank (Entrez/ASN.1) sources, with the optimizer
//! migrating the relational part into one SQL query and the per-sequence
//! lookups into batched loops, each shipping its keys a few multi-key
//! requests at a time.
//!
//! ```sh
//! cargo run --example doe_query [CHROMOSOME] [BAND-PREFIX]
//! cargo run --example doe_query 22 22q1
//! ```

use std::time::Duration;

use bio_data::{GdbConfig, GenBankConfig};
use kleisli::{bio_federation, Session};
use kleisli_core::print::to_table;
use kleisli_core::{Driver, LatencyModel, Value};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let chromosome = args.next().unwrap_or_else(|| "22".to_string());
    let band_prefix = args.next();

    // Simulated wide-area sources: 2 ms per request, 20 µs per row.
    let fed = bio_federation(
        &GdbConfig {
            loci: 600,
            seed: 22,
            ..Default::default()
        },
        &GenBankConfig {
            extra_entries: 150,
            links_per_entry: 4,
            seed: 22,
            ..Default::default()
        },
        LatencyModel::virtual_only(Duration::from_millis(2), Duration::from_micros(20)),
        LatencyModel::virtual_only(Duration::from_millis(2), Duration::from_micros(20)),
    )?;

    let mut session = Session::new();
    session.register_driver(fed.gdb.clone());
    session.register_driver(fed.genbank.clone());

    // The parameterized user-view underlying the Figure-1 form. The band
    // interval is an optional refinement on the cytogenetic location.
    let band_filter = match &band_prefix {
        Some(b) => format!(r#", strstartswith(band, "{b}")"#),
        None => String::new(),
    };
    session.run(&format!(
        r#"define Loci == {{[locus_symbol = x, genbank_ref = y] |
            [locus_symbol = \x, locus_id = \a, ...] <- GDB-Tab("locus"),
            [genbank_ref = \y, object_id = a, object_class_key = 1, ...] <- GDB-Tab("object_genbank_eref"),
            [loc_cyto_chrom_num = "{chromosome}", locus_cyto_location_id = a, loc_cyto_band = \band, ...]
                <- GDB-Tab("locus_cyto_location"){band_filter}}};"#
    ))?;

    // ASN-IDs: accession number -> ASN.1 sequence ids, with the path
    // expression pruning applied at the driver (Section 3).
    session.run(
        r#"define ASN-IDs == \accession =>
               flatten(GenBank([db = "na",
                                select = "accession " ^ accession,
                                path = "Seq-entry.seq.id..giim"]));"#,
    )?;

    // NA-Links: precomputed similarity links for one sequence id.
    session.run(r#"define NA-Links == \uid => GenBank([db = "na", link = uid]);"#)?;

    // The final solution, as in the paper — a nested relation pairing each
    // locus with its non-human homologs.
    let doe = r#"{[locus = locus, homologs =
                     {l | \l <- NA-Links(uid), not (l.organism = "Homo sapiens")}] |
                  \locus <- Loci, \uid <- ASN-IDs(locus.genbank_ref)}"#;

    println!("{}", session.explain(doe)?);

    let gdb_before = session.driver_metrics("GDB")?;
    let gb_before = session.driver_metrics("GenBank")?;
    fed.gdb.latency().reset();
    fed.genbank.latency().reset();
    let t0 = std::time::Instant::now();
    let result = session.query(doe)?;
    let elapsed = t0.elapsed();

    let rows = result.elements().unwrap_or(&[]);
    println!(
        "chromosome {chromosome}{}: {} loci with sequence entries",
        band_prefix
            .as_deref()
            .map(|b| format!(", band {b}*"))
            .unwrap_or_default(),
        rows.len()
    );
    for row in rows.iter().take(5) {
        let locus = row.project("locus").expect("locus field");
        let homologs = row.project("homologs").expect("homologs field");
        println!(
            "  {} -> {} non-human homolog(s)",
            locus
                .project("locus_symbol")
                .unwrap_or(&Value::str("?")),
            homologs.len().unwrap_or(0)
        );
        if let Some(hs) = homologs.elements() {
            if !hs.is_empty() {
                println!("{}", indent(&to_table(homologs), 6));
            }
        }
    }
    if rows.len() > 5 {
        println!("  ... and {} more", rows.len() - 5);
    }

    let gdb_m = session.driver_metrics("GDB")?.since(&gdb_before);
    let gb_m = session.driver_metrics("GenBank")?.since(&gb_before);
    println!("\n— driver traffic —");
    println!(
        "GDB:     {} request(s), {} rows, {} bytes",
        gdb_m.requests, gdb_m.rows_shipped, gdb_m.bytes_shipped
    );
    println!(
        "GenBank: {} request(s), {} rows, {} bytes",
        gb_m.requests, gb_m.rows_shipped, gb_m.bytes_shipped
    );
    // Each loop body replays its element's batch handle: none goes back
    // to the window, and every flight left it as it resolved.
    println!(
        "GenBank: coalesced {}, {} flight(s) in the air",
        gb_m.coalesced,
        fed.genbank.resilience().pending_flights()
    );
    println!(
        "simulated network time: GDB {:?} + GenBank {:?}; local wall clock {:?}",
        fed.gdb.latency().virtual_elapsed(),
        fed.genbank.latency().virtual_elapsed(),
        elapsed
    );
    Ok(())
}

fn indent(text: &str, by: usize) -> String {
    let pad = " ".repeat(by);
    text.lines()
        .map(|l| format!("{pad}{l}"))
        .collect::<Vec<_>>()
        .join("\n")
}
