//! GDB-shaped relational data: the three tables the paper's `Loci22`
//! query joins, with the schema names used in its SQL.

use rand::Rng;

use sybase_sim::storage::Datum;
use sybase_sim::Database;

use crate::accession;

/// Generation parameters.
#[derive(Debug, Clone)]
pub struct GdbConfig {
    /// Total loci across all chromosomes.
    pub loci: usize,
    /// Chromosomes to spread loci over (names "1".."22","X","Y" cycle).
    pub chromosomes: usize,
    /// Fraction (0..=100) of loci that carry a GenBank cross-reference of
    /// object class 1 (the class `Loci22` selects).
    pub genbank_ref_pct: u32,
    pub seed: u64,
}

impl Default for GdbConfig {
    fn default() -> Self {
        GdbConfig {
            loci: 500,
            chromosomes: 24,
            genbank_ref_pct: 80,
            seed: 22,
        }
    }
}

/// One generated locus.
#[derive(Debug, Clone, PartialEq)]
pub struct Locus {
    pub locus_id: i64,
    pub symbol: String,
    pub chromosome: String,
    pub band: String,
    /// GenBank accession, if cross-referenced.
    pub genbank_ref: Option<String>,
    /// Object class key for the cross-reference (1 = sequence object).
    pub object_class_key: i64,
}

/// The generated data plus loaders.
#[derive(Debug, Clone)]
pub struct GdbData {
    pub loci: Vec<Locus>,
}

pub(crate) fn chromosome_name(i: usize) -> String {
    match i % 24 {
        22 => "X".to_string(),
        23 => "Y".to_string(),
        n => (n + 1).to_string(),
    }
}

impl GdbData {
    pub fn generate(config: &GdbConfig) -> GdbData {
        let mut rng = crate::rng(config.seed);
        let mut loci = Vec::with_capacity(config.loci);
        for i in 0..config.loci {
            let chromosome = chromosome_name(rng.gen_range(0..config.chromosomes.max(1)));
            let arm = if rng.gen_bool(0.5) { "p" } else { "q" };
            let band = format!(
                "{chromosome}{arm}{}{}",
                rng.gen_range(1..=3),
                rng.gen_range(1..=9)
            );
            let has_ref = rng.gen_range(0..100) < config.genbank_ref_pct;
            loci.push(Locus {
                locus_id: i as i64 + 1,
                symbol: format!("D{}S{}", chromosome, 100 + i),
                chromosome,
                band,
                genbank_ref: has_ref.then(|| accession(i)),
                object_class_key: if rng.gen_bool(0.9) { 1 } else { 2 },
            });
        }
        GdbData { loci }
    }

    /// Load into a relational database using the paper's schema:
    /// `locus(locus_id, locus_symbol)`,
    /// `object_genbank_eref(object_id, genbank_ref, object_class_key)`,
    /// `locus_cyto_location(locus_cyto_location_id, loc_cyto_chrom_num,
    /// loc_cyto_band)`. Indexes are created on the join columns ("where
    /// pre-computed indexes and table statistics may be exploited").
    pub fn load(&self, db: &mut Database) -> kleisli_core::KResult<()> {
        db.create_table("locus", &["locus_id", "locus_symbol"])?;
        db.create_table(
            "object_genbank_eref",
            &["object_id", "genbank_ref", "object_class_key"],
        )?;
        db.create_table(
            "locus_cyto_location",
            &[
                "locus_cyto_location_id",
                "loc_cyto_chrom_num",
                "loc_cyto_band",
            ],
        )?;
        for l in &self.loci {
            db.table_mut("locus")?
                .insert(vec![Datum::Int(l.locus_id), Datum::str(&l.symbol)])?;
            if let Some(acc) = &l.genbank_ref {
                db.table_mut("object_genbank_eref")?.insert(vec![
                    Datum::Int(l.locus_id),
                    Datum::str(acc),
                    Datum::Int(l.object_class_key),
                ])?;
            }
            db.table_mut("locus_cyto_location")?.insert(vec![
                Datum::Int(l.locus_id),
                Datum::str(&l.chromosome),
                Datum::str(&l.band),
            ])?;
        }
        db.table_mut("locus")?.create_index("locus_id")?;
        db.table_mut("object_genbank_eref")?
            .create_index("object_id")?;
        db.table_mut("locus_cyto_location")?
            .create_index("locus_cyto_location_id")?;
        Ok(())
    }

    /// Accessions of loci on a chromosome with class-1 GenBank refs — the
    /// expected result of `Loci22` for correctness checks.
    pub fn expected_loci(&self, chromosome: &str) -> Vec<(&str, &str)> {
        self.loci
            .iter()
            .filter(|l| l.chromosome == chromosome && l.object_class_key == 1)
            .filter_map(|l| l.genbank_ref.as_deref().map(|acc| (l.symbol.as_str(), acc)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sybase_sim::{execute_query, parse};

    #[test]
    fn load_and_query_loci22() {
        let data = GdbData::generate(&GdbConfig {
            loci: 200,
            seed: 1,
            ..Default::default()
        });
        let mut db = Database::new();
        data.load(&mut db).unwrap();
        let rows = execute_query(
            &db,
            &parse(
                "select locus_symbol, genbank_ref \
                 from locus, object_genbank_eref, locus_cyto_location \
                 where locus.locus_id = locus_cyto_location.locus_cyto_location_id \
                 and locus.locus_id = object_genbank_eref.object_id \
                 and object_class_key = 1 \
                 and loc_cyto_chrom_num = '22'",
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(rows.len(), data.expected_loci("22").len());
        assert!(!rows.is_empty(), "seed must place some loci on chr 22");
    }

    #[test]
    fn chromosome_names_cover_x_y() {
        assert_eq!(chromosome_name(0), "1");
        assert_eq!(chromosome_name(21), "22");
        assert_eq!(chromosome_name(22), "X");
        assert_eq!(chromosome_name(23), "Y");
    }

    #[test]
    fn stats_expose_indexes_for_optimizer() {
        let data = GdbData::generate(&GdbConfig::default());
        let mut db = Database::new();
        data.load(&mut db).unwrap();
        let stats = db.table("locus").unwrap().stats();
        assert!(stats.indexed_columns.contains(&"locus_id".to_string()));
        assert_eq!(stats.columns, vec!["locus_id", "locus_symbol"]);
    }
}
