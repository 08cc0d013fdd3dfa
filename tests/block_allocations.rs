//! How many mid-sized blocks a query allocates. A generator makes room
//! for the rows its pull can yield — elements in hand times the most rows
//! one element's body yields — not for the consumer's whole grain, so a
//! pull of one element with one row is no 64-row block. A counting
//! allocator over the whole process counts the allocations of 1–4 KiB
//! (where a block of 64 rows falls) one run of the paper's DOE query
//! makes, so this binary holds only this test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use bio_data::{GdbConfig, GenBankConfig};
use kleisli::{bio_federation, How, Session};
use kleisli_core::LatencyModel;

/// The system allocator, counting the allocations (and reallocations)
/// of 1–4 KiB.
struct Counting;

static MID_SIZED: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    if (1024..=4096).contains(&size) {
        MID_SIZED.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations for `alloc` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as for `dealloc`, and the caller's obligations for
        // `realloc` are `System`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The DOE query of `tests/doe_query.rs`, over its 400-locus federation
/// with no latency.
fn doe_session() -> (Session, kleisli::BioFederation) {
    let fed = bio_federation(
        &GdbConfig {
            loci: 400,
            seed: 11,
            ..Default::default()
        },
        &GenBankConfig {
            extra_entries: 120,
            links_per_entry: 3,
            seed: 11,
            ..Default::default()
        },
        LatencyModel::instant(),
        LatencyModel::instant(),
    )
    .expect("federation");
    let mut session = Session::new();
    session.register_driver(fed.gdb.clone());
    session.register_driver(fed.genbank.clone());
    session
        .run(
            r#"
            define Loci22 == {[locus_symbol = x, genbank_ref = y] |
                [locus_symbol = \x, locus_id = \a, ...] <- GDB-Tab("locus"),
                [genbank_ref = \y, object_id = a, object_class_key = 1, ...] <- GDB-Tab("object_genbank_eref"),
                [loc_cyto_chrom_num = "22", locus_cyto_location_id = a, ...] <- GDB-Tab("locus_cyto_location")};
            define ASN-IDs == \accession =>
                flatten(GenBank([db = "na",
                                 select = "accession " ^ accession,
                                 path = "Seq-entry.seq.id..giim"]));
            define NA-Links == \uid => GenBank([db = "na", link = uid]);
        "#,
        )
        .expect("defines");
    (session, fed)
}

const DOE: &str = r#"{[locus = locus, homologs =
        {l | \l <- NA-Links(uid), not (l.organism = "Homo sapiens")}] |
    \locus <- Loci22, \uid <- ASN-IDs(locus.genbank_ref)}"#;

#[test]
fn a_doe_run_allocates_few_mid_sized_blocks() {
    const RUNS: u64 = 20;
    // Measured: 14 a run, and 30 when every pull reserved its whole
    // grain (at most 64 rows) whatever it could yield.
    const CEILING: u64 = 14;
    let (session, _fed) = doe_session();
    let plan = session.compile_shared(DOE).expect("compile");
    // The first run starts the pools' threads and interns the shapes.
    session.start(&plan, How::default()).wait().expect("query");
    let before = MID_SIZED.load(Ordering::Relaxed);
    for _ in 0..RUNS {
        session.start(&plan, How::default()).wait().expect("query");
    }
    let per_run = (MID_SIZED.load(Ordering::Relaxed) - before) as f64 / RUNS as f64;
    println!("{per_run} allocations of 1-4 KiB per run");
    assert!(
        per_run <= CEILING as f64,
        "{per_run} allocations of 1-4 KiB per DOE run (ceiling {CEILING})"
    );
}
