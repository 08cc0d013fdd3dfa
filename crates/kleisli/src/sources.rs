//! Convenience constructors wiring the simulated biological sources into
//! a session — the counterpart of the paper's driver registration step.

use std::sync::Arc;

use ace_sim::AceServer;
use bio_data::{GdbConfig, GdbData, GenBankConfig, GenBankData};
use entrez_sim::{Entrez, EntrezServer};
use kleisli_core::{KResult, LatencyModel, Oid, Value};
use kleisli_exec::ObjectStore;
use sybase_sim::{Database, SybaseServer};

/// A generated federation: the GDB relational server and the GenBank
/// Entrez server, loaded with cross-referenced synthetic data.
pub struct BioFederation {
    pub gdb: Arc<SybaseServer>,
    pub genbank: Arc<EntrezServer>,
    pub gdb_data: GdbData,
    pub genbank_data: GenBankData,
}

/// Generate and load the standard two-source federation of the paper's
/// "impossible" DOE query.
pub fn bio_federation(
    gdb_config: &GdbConfig,
    genbank_config: &GenBankConfig,
    gdb_latency: LatencyModel,
    genbank_latency: LatencyModel,
) -> KResult<BioFederation> {
    let gdb_data = GdbData::generate(gdb_config);
    let mut db = Database::new();
    gdb_data.load(&mut db)?;
    let gdb = Arc::new(SybaseServer::serve("GDB", db.into(), gdb_latency));

    let genbank_data = GenBankData::generate(genbank_config, &gdb_data);
    let genbank = Arc::new(EntrezServer::serve("GenBank", Entrez::default(), genbank_latency));
    genbank_data.load(&genbank, "na")?;

    Ok(BioFederation {
        gdb,
        genbank,
        gdb_data,
        genbank_data,
    })
}

/// Adapter exposing an [`AceServer`] as the session's object store so that
/// `deref` resolves ACE references.
pub struct AceObjects(pub Arc<AceServer>);

impl ObjectStore for AceObjects {
    fn deref(&self, oid: &Oid) -> KResult<Value> {
        self.0.deref(oid)
    }
}
