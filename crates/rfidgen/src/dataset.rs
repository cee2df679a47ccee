//! Building relational tables from generated traces, plus the benchmark
//! rule set and queries of the paper's §6.

use crate::anomaly::{inject_anomalies, AnomalyCounts, SpecialLocations};
use crate::config::GenConfig;
use crate::gen::{generate_clean, CleanData, ReaderId};
use dc_relational::batch::{schema_ref, Batch};
use dc_relational::column::ColumnBuilder;
use dc_relational::error::Result;
use dc_relational::schema::{Field, Schema};
use dc_relational::table::{Catalog, Table};
use dc_relational::value::{DataType, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Handle returned by [`generate_into`]: anomaly accounting, selectivity
/// helpers, and the paper's benchmark rules/queries instantiated against
/// this dataset.
#[derive(Debug)]
pub struct Dataset {
    pub config: GenConfig,
    pub counts: AnomalyCounts,
    /// GLNs of the replacing-rule locations (loc1, loc2, locA).
    pub loc1: String,
    pub loc2: String,
    pub loc_a: String,
    /// Number of rows loaded into caseR.
    pub case_reads: usize,
    /// Number of rows loaded into palletR.
    pub pallet_reads: usize,
    /// Sorted caseR read times, for selectivity targeting.
    rtimes: Vec<i64>,
}

fn reads_schema() -> Arc<Schema> {
    schema_ref(Schema::new(vec![
        Field::new("epc", DataType::Str),
        Field::new("rtime", DataType::Int),
        Field::new("reader", DataType::Str),
        Field::new("biz_loc", DataType::Str),
        Field::new("biz_step", DataType::Str),
    ]))
}

fn input_schema() -> Arc<Schema> {
    schema_ref(Schema::new(vec![
        Field::new("epc", DataType::Str),
        Field::new("rtime", DataType::Int),
        Field::new("reader", DataType::Str),
        Field::new("biz_loc", DataType::Str),
        Field::new("biz_step", DataType::Str),
        Field::new("is_pallet", DataType::Int),
    ]))
}

fn case_epc(i: usize) -> String {
    format!("urn:epc:case:{i:012}")
}

fn pallet_epc(i: usize) -> String {
    format!("urn:epc:pallet:{i:010}")
}

fn step_name(i: usize) -> String {
    format!("step{i:03}")
}

/// Generate the seven-table RFID schema of Figure 5 into `catalog`,
/// with anomalies injected per the configuration, and create the paper's
/// indexes (every caseR/palletR column except `reader`; parent on
/// child_epc; locs additionally on site; steps additionally on type).
pub fn generate_into(catalog: &Catalog, config: GenConfig) -> Result<Dataset> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut data = generate_clean(&config, &mut rng);
    let special = SpecialLocations::pick(&data);
    let counts = inject_anomalies(&config, &mut data, &special, &mut rng);

    let dataset = load_tables(catalog, &config, &data, &special, counts, &mut rng)?;
    Ok(dataset)
}

fn read_row(data: &CleanData, epc: &str, r: &crate::gen::Read) -> Vec<Value> {
    let reader = match r.reader {
        ReaderId::Location(l) => format!("rdr:{}", data.topology.glns[l]),
        ReaderId::ReaderX => "readerX".to_string(),
    };
    vec![
        Value::str(epc),
        Value::Int(r.rtime),
        Value::str(reader),
        Value::str(&data.topology.glns[r.loc]),
        Value::str(step_name(r.step)),
    ]
}

fn load_tables(
    catalog: &Catalog,
    config: &GenConfig,
    data: &CleanData,
    special: &SpecialLocations,
    counts: AnomalyCounts,
    rng: &mut StdRng,
) -> Result<Dataset> {
    // --- caseR ---
    let mut case_rows: Vec<Vec<Value>> = Vec::new();
    let mut rtimes: Vec<i64> = Vec::new();
    for (ci, c) in data.cases.iter().enumerate() {
        let epc = case_epc(ci);
        for r in &c.reads {
            case_rows.push(read_row(data, &epc, r));
            rtimes.push(r.rtime);
        }
    }
    rtimes.sort_unstable();
    let case_reads = case_rows.len();
    // caseR is loaded as a *segmented* table: one payload sealed into
    // `segment_rows`-row segments (zone maps included), each a window of it,
    // so the table reads as one batch without a copy — the segment
    // boundaries a live RFID feed of `segment_rows`-row appends would seal.
    let full = Batch::from_rows(reads_schema(), &case_rows)?;
    let mut caser = Table::with_segment_rows("caser", full, config.segment_rows);
    // Case rows are generated case-by-case with reads in time order, so the
    // feed is (epc, rtime)-sorted; declaring that lets every sealed segment
    // verify and record the order, which window sorts over caser later
    // exploit as metadata-only run detection.
    caser.set_sequence_order(&["epc", "rtime"])?;
    for col in ["epc", "rtime", "biz_loc", "biz_step"] {
        caser.create_index(col)?;
    }
    catalog.register(caser);

    // --- palletR ---
    let mut pallet_rows: Vec<Vec<Value>> = Vec::new();
    for (pi, p) in data.pallets.iter().enumerate() {
        let epc = pallet_epc(pi);
        for r in &p.reads {
            pallet_rows.push(read_row(data, &epc, r));
        }
    }
    let pallet_reads = pallet_rows.len();
    let mut palletr = Table::new("palletr", Batch::from_rows(reads_schema(), &pallet_rows)?);
    for col in ["epc", "rtime", "biz_loc", "biz_step"] {
        palletr.create_index(col)?;
    }
    catalog.register(palletr);

    // --- parent ---
    let parent_schema = schema_ref(Schema::new(vec![
        Field::new("child_epc", DataType::Str),
        Field::new("parent_epc", DataType::Str),
    ]));
    let parent_rows: Vec<Vec<Value>> = data
        .cases
        .iter()
        .enumerate()
        .map(|(ci, c)| vec![Value::str(case_epc(ci)), Value::str(pallet_epc(c.pallet))])
        .collect();
    let mut parent = Table::new("parent", Batch::from_rows(parent_schema, &parent_rows)?);
    parent.create_index("child_epc")?;
    catalog.register(parent);

    // --- epc_info ---
    let info_schema = schema_ref(Schema::new(vec![
        Field::new("epc", DataType::Str),
        Field::new("product", DataType::Str),
        Field::new("lot", DataType::Int),
        Field::new("manu_date", DataType::Int),
        Field::new("exp_date", DataType::Int),
    ]));
    let info_rows: Vec<Vec<Value>> = data
        .cases
        .iter()
        .enumerate()
        .map(|(ci, _)| {
            let manu = rng.gen_range(0..config.time_window_secs);
            vec![
                Value::str(case_epc(ci)),
                Value::str(format!("prod{:04}", data.case_product[ci])),
                Value::Int(rng.gen_range(0..10_000)),
                Value::Int(manu),
                Value::Int(manu + 2 * 365 * 24 * 3600),
            ]
        })
        .collect();
    let mut info = Table::new("epc_info", Batch::from_rows(info_schema, &info_rows)?);
    info.create_index("epc")?;
    catalog.register(info);

    // --- product ---
    let product_schema = schema_ref(Schema::new(vec![
        Field::new("product", DataType::Str),
        Field::new("manufacturer", DataType::Str),
    ]));
    let product_rows: Vec<Vec<Value>> = data
        .product_manufacturer
        .iter()
        .enumerate()
        .map(|(i, &m)| {
            vec![
                Value::str(format!("prod{i:04}")),
                Value::str(format!("mfr{m:02}")),
            ]
        })
        .collect();
    let mut product = Table::new("product", Batch::from_rows(product_schema, &product_rows)?);
    product.create_index("product")?;
    catalog.register(product);

    // --- steps ---
    let steps_schema = schema_ref(Schema::new(vec![
        Field::new("biz_step", DataType::Str),
        Field::new("type", DataType::Str),
    ]));
    let steps_rows: Vec<Vec<Value>> = (0..config.num_steps)
        .map(|i| {
            vec![
                Value::str(step_name(i)),
                Value::str(format!("type{}", i % config.num_step_types)),
            ]
        })
        .collect();
    let mut steps = Table::new("steps", Batch::from_rows(steps_schema, &steps_rows)?);
    steps.create_index("biz_step")?;
    steps.create_index("type")?;
    catalog.register(steps);

    // --- locs ---
    let locs_schema = schema_ref(Schema::new(vec![
        Field::new("gln", DataType::Str),
        Field::new("site", DataType::Str),
        Field::new("loc_desc", DataType::Str),
    ]));
    let locs_rows: Vec<Vec<Value>> = (0..data.topology.glns.len())
        .map(|i| {
            vec![
                Value::str(&data.topology.glns[i]),
                Value::str(&data.topology.loc_sites[i]),
                Value::str(&data.topology.loc_descs[i]),
            ]
        })
        .collect();
    let mut locs = Table::new("locs", Batch::from_rows(locs_schema, &locs_rows)?);
    locs.create_index("gln")?;
    locs.create_index("site")?;
    catalog.register(locs);

    Ok(Dataset {
        config: config.clone(),
        counts,
        loc1: data.topology.glns[special.loc1].clone(),
        loc2: data.topology.glns[special.loc2].clone(),
        loc_a: data.topology.glns[special.loc_a].clone(),
        case_reads,
        pallet_reads,
        rtimes,
    })
}

impl Dataset {
    /// EPC urn of the `i`-th generated case — for targeted point queries
    /// (e.g. demonstrating zone-map segment pruning on the epc column).
    pub fn case_epc_urn(&self, i: usize) -> String {
        case_epc(i)
    }

    /// The read time below which approximately `fraction` of caseR rows fall
    /// (for dialing predicate selectivity, §6.2).
    pub fn rtime_quantile(&self, fraction: f64) -> i64 {
        if self.rtimes.is_empty() {
            return 0;
        }
        let idx = ((self.rtimes.len() - 1) as f64 * fraction.clamp(0.0, 1.0)) as usize;
        self.rtimes[idx]
    }

    /// Materialize the derived input for the missing rule — the union of
    /// caseR (`is_pallet = 0`) and the expected case reads R′ derived from
    /// palletR ⋈ parent (`is_pallet = 1`, paper §4.3 Example 5 / §6.3) —
    /// as table `r_with_pallets`, indexed on epc and rtime.
    pub fn materialize_missing_input(&self, catalog: &Catalog) -> Result<()> {
        let caser = catalog.get("caser")?;
        let palletr = catalog.get("palletr")?;
        let parent = catalog.get("parent")?;

        // parent_epc -> child epcs.
        let mut children: std::collections::HashMap<String, Vec<String>> =
            std::collections::HashMap::new();
        let pdata = parent.data();
        for i in 0..pdata.num_rows() {
            let child = pdata.column(0).str_at(i).unwrap_or_default().to_string();
            let par = pdata.column(1).str_at(i).unwrap_or_default().to_string();
            children.entry(par).or_default().push(child);
        }

        let schema = input_schema();
        let mut builders: Vec<ColumnBuilder> = schema
            .fields()
            .iter()
            .map(|f| ColumnBuilder::new(f.data_type, 0))
            .collect();
        let mut push_row = |vals: &[Value]| -> Result<()> {
            for (b, v) in builders.iter_mut().zip(vals) {
                b.push(v)?;
            }
            Ok(())
        };
        let cdata = caser.data();
        for i in 0..cdata.num_rows() {
            let mut row = cdata.row(i);
            row.push(Value::Int(0));
            push_row(&row)?;
        }
        let pdata = palletr.data();
        for i in 0..pdata.num_rows() {
            let row = pdata.row(i);
            let Some(par) = row[0].as_str() else { continue };
            if let Some(kids) = children.get(par) {
                for kid in kids {
                    let mut copy = row.clone();
                    copy[0] = Value::str(kid.as_str());
                    copy.push(Value::Int(1));
                    push_row(&copy)?;
                }
            }
        }
        let batch = Batch::new(
            schema,
            builders.into_iter().map(ColumnBuilder::finish).collect(),
        )?;
        let mut t = Table::new("r_with_pallets", batch);
        for col in ["epc", "rtime", "biz_loc", "biz_step"] {
            t.create_index(col)?;
        }
        catalog.register(t);
        Ok(())
    }

    /// The paper's five cleansing rules (§4.3 / Table 1 order: reader,
    /// duplicate, replacing, cycle, missing), instantiated for this dataset
    /// with t1 = 5 min, t2 = 5 min, t3 = 20 min.
    ///
    /// `n` is the number of *logical* rules to enable (1–5). The missing
    /// rule expands to two sub-rules (r1, r2). Because an application's
    /// rules must share one input (§4.4), enabling the missing rule switches
    /// every rule's FROM to `r_with_pallets` and adds `is_pallet = 0` guards
    /// to the other rules (call [`Dataset::materialize_missing_input`]
    /// first).
    ///
    /// Note: the paper sets t2 = 10 min in §4.3 but expands q1's predicate
    /// by 5 min in Table 1/§6.2; we use t2 = 5 min so Table 1 reproduces.
    pub fn benchmark_rules(&self, n: usize) -> Vec<String> {
        assert!((1..=5).contains(&n), "1..=5 logical rules");
        let with_missing = n >= 5;
        let from = if with_missing {
            " FROM r_with_pallets"
        } else {
            ""
        };
        let guard1 = |r: &str| {
            if with_missing {
                format!(" and {r}.is_pallet = 0")
            } else {
                String::new()
            }
        };
        let mut rules = vec![
            format!(
                "DEFINE reader ON caseR{from} CLUSTER BY epc SEQUENCE BY rtime AS (A, *B) \
                 WHERE B.reader = 'readerX' and B.rtime - A.rtime < 5 mins{} ACTION DELETE A",
                guard1("A")
            ),
            format!(
                "DEFINE duplicate ON caseR{from} CLUSTER BY epc SEQUENCE BY rtime AS (A, B) \
                 WHERE A.biz_loc = B.biz_loc and B.rtime - A.rtime < 5 mins{}{} ACTION DELETE B",
                guard1("A"),
                guard1("B")
            ),
            format!(
                "DEFINE replacing ON caseR{from} CLUSTER BY epc SEQUENCE BY rtime AS (A, B) \
                 WHERE A.biz_loc = '{}' and B.biz_loc = '{}' and B.rtime - A.rtime < 20 mins{}{} \
                 ACTION MODIFY A.biz_loc = '{}'",
                self.loc2,
                self.loc_a,
                guard1("A"),
                guard1("B"),
                self.loc1
            ),
            format!(
                "DEFINE cycle ON caseR{from} CLUSTER BY epc SEQUENCE BY rtime AS (A, B, C) \
                 WHERE A.biz_loc = C.biz_loc and A.biz_loc != B.biz_loc{}{}{} ACTION DELETE B",
                guard1("A"),
                guard1("B"),
                guard1("C")
            ),
        ];
        rules.truncate(n.min(4));
        if with_missing {
            rules.push(format!(
                "DEFINE missing_r1 ON caseR{from} CLUSTER BY epc SEQUENCE BY rtime AS (X, A, Y) \
                 WHERE A.is_pallet = 1 and \
                   ((X.is_pallet = 0 and A.biz_loc = X.biz_loc and A.rtime - X.rtime < 10 mins) or \
                    (Y.is_pallet = 0 and A.biz_loc = Y.biz_loc and Y.rtime - A.rtime < 10 mins)) \
                 ACTION MODIFY A.has_case_nearby = 1"
            ));
            rules.push(format!(
                "DEFINE missing_r2 ON caseR{from} CLUSTER BY epc SEQUENCE BY rtime AS (A, *B) \
                 WHERE A.is_pallet = 0 or (A.has_case_nearby = 0 and B.has_case_nearby = 1) \
                 ACTION KEEP A"
            ));
        }
        rules
    }

    /// q1 — "dwell" analysis (paper Figure 6), parameterized by T1.
    pub fn q1(&self, t1: i64) -> String {
        format!(
            "with v1 as ( \
               select biz_loc as current_loc, rtime, \
                 max(rtime) over (partition by epc order by rtime asc \
                   rows between 1 preceding and 1 preceding) as prev_time, \
                 max(biz_loc) over (partition by epc order by rtime asc \
                   rows between 1 preceding and 1 preceding) as prev_loc \
               from caser where rtime <= {t1} ) \
             select l1.loc_desc, l2.loc_desc, avg(rtime - prev_time) as dwell \
             from v1, locs l1, locs l2 \
             where v1.prev_loc = l1.gln and v1.current_loc = l2.gln \
             group by l1.loc_desc, l2.loc_desc"
        )
    }

    /// q2 — site analysis (paper Figure 6), parameterized by T2 and the DC.
    pub fn q2(&self, t2: i64, dc: usize) -> String {
        format!(
            "select p.manufacturer, count(distinct s.type) as step_types, \
                    count(distinct c.reader) as readers \
             from caser c, steps s, locs l, epc_info i, product p \
             where c.biz_step = s.biz_step and c.biz_loc = l.gln \
               and c.epc = i.epc and i.product = p.product \
               and c.rtime >= {t2} \
               and l.site = 'distribution center {dc}' \
             group by p.manufacturer"
        )
    }

    /// q2′ — q2 with the site predicate swapped for a step-type predicate
    /// that is uncorrelated with EPCs (paper Figure 8).
    pub fn q2_prime(&self, t2: i64, step_type: usize) -> String {
        format!(
            "select p.manufacturer, count(distinct l.site) as sites, \
                    count(distinct c.reader) as readers \
             from caser c, steps s, locs l, epc_info i, product p \
             where c.biz_step = s.biz_step and c.biz_loc = l.gln \
               and c.epc = i.epc and i.product = p.product \
               and c.rtime >= {t2} \
               and s.type = 'type{step_type}' \
             group by p.manufacturer"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_relational::sql::run_sql;

    fn small() -> (Catalog, Dataset) {
        let cat = Catalog::new();
        let ds = generate_into(&cat, GenConfig::tiny(2, 20.0, 7)).unwrap();
        (cat, ds)
    }

    #[test]
    fn tables_registered_with_expected_cardinalities() {
        let (cat, ds) = small();
        let caser = cat.get("caser").unwrap();
        assert_eq!(caser.num_rows(), ds.case_reads);
        assert!(ds.case_reads > 2 * 20 * 25); // >= scale * min_cases * ~reads
        assert_eq!(cat.get("palletr").unwrap().num_rows(), 60);
        let n_cases = cat.get("parent").unwrap().num_rows();
        assert_eq!(cat.get("epc_info").unwrap().num_rows(), n_cases);
        assert_eq!(cat.get("product").unwrap().num_rows(), 1000);
        assert_eq!(cat.get("steps").unwrap().num_rows(), 100);
        assert_eq!(
            cat.get("locs").unwrap().num_rows(),
            ds.config.num_locations()
        );
    }

    #[test]
    fn indexes_created() {
        let (cat, _) = small();
        let caser = cat.get("caser").unwrap();
        assert_eq!(
            caser.indexed_columns(),
            vec!["biz_loc", "biz_step", "epc", "rtime"]
        );
        assert!(caser.index("reader").is_none());
        assert!(cat.get("locs").unwrap().index("site").is_some());
        assert!(cat.get("steps").unwrap().index("type").is_some());
    }

    #[test]
    fn quantiles_monotone() {
        let (_, ds) = small();
        let q10 = ds.rtime_quantile(0.1);
        let q50 = ds.rtime_quantile(0.5);
        let q90 = ds.rtime_quantile(0.9);
        assert!(q10 <= q50 && q50 <= q90);
        // Roughly 10% of reads at or below the 10% quantile.
        let (cat, ds) = small();
        let out = run_sql(
            &format!(
                "select count(*) as n from caser where rtime <= {}",
                ds.rtime_quantile(0.1)
            ),
            &cat,
        )
        .unwrap();
        let n = out.row(0)[0].as_int().unwrap() as f64;
        let frac = n / ds.case_reads as f64;
        assert!((0.05..=0.15).contains(&frac), "frac = {frac}");
    }

    #[test]
    fn benchmark_queries_run() {
        let (cat, ds) = small();
        let t1 = ds.rtime_quantile(0.2);
        let out = run_sql(&ds.q1(t1), &cat).unwrap();
        assert!(out.num_rows() > 0);
        let t2 = ds.rtime_quantile(0.8);
        let out = run_sql(&ds.q2(t2, 0), &cat).unwrap();
        // Small data may produce few groups, but the query must plan + run.
        let _ = out.num_rows();
        let out = run_sql(&ds.q2_prime(t2, 3), &cat).unwrap();
        let _ = out.num_rows();
    }

    #[test]
    fn missing_input_materialization() {
        let (cat, ds) = small();
        ds.materialize_missing_input(&cat).unwrap();
        let t = cat.get("r_with_pallets").unwrap();
        // caseR rows + ~one pallet copy per (case, pallet read).
        assert!(t.num_rows() > ds.case_reads);
        let schema = t.schema();
        assert!(schema.index_of(None, "is_pallet").is_ok());
        // Case rows flagged 0, pallet copies 1.
        let out = run_sql(
            "select is_pallet, count(*) as n from r_with_pallets group by is_pallet",
            &cat,
        )
        .unwrap();
        assert_eq!(out.num_rows(), 2);
    }

    #[test]
    fn rules_parse_and_compile() {
        let (cat, ds) = small();
        ds.materialize_missing_input(&cat).unwrap();
        for n in 1..=5 {
            let rules = ds.benchmark_rules(n);
            assert_eq!(rules.len(), if n == 5 { 6 } else { n });
            for text in &rules {
                let def = dc_sqlts::parse_rule(text).unwrap();
                dc_sqlts::validate_rule_against_catalog(&def, &cat).unwrap();
                dc_rules::compile_rule(&def).unwrap();
            }
        }
    }

    #[test]
    fn caser_is_segmented_with_incremental_indexes() {
        let (cat, ds) = small();
        let caser = cat.get("caser").unwrap();
        let segs = caser.segments();
        assert!(
            segs.len() >= 2,
            "{} rows in {} segments",
            ds.case_reads,
            segs.len()
        );
        assert_eq!(segs.iter().map(|s| s.rows).sum::<usize>(), ds.case_reads);
        // Reads are emitted in case order, so a case's epc covers few
        // segments — the zone maps make its point query prunable.
        let covering = caser.covering_segments("epc", &Value::str(ds.case_epc_urn(0)));
        assert!(!covering.is_empty());
        assert!(covering.len() < segs.len());
        // The indexes cover every row.
        for col in ["epc", "rtime", "biz_loc", "biz_step"] {
            assert_eq!(caser.index(col).unwrap().covered_rows(), ds.case_reads);
        }
        // The declared (epc, rtime) sequence order verified at every seal:
        // one metadata run per segment, available without touching rows.
        assert_eq!(caser.sequence_order(), &[0, 1]);
        let runs = caser.segment_runs(caser.sequence_order()).unwrap();
        assert_eq!(runs.len(), segs.len());
        // Segmented load returns exactly the same rows as a monolithic one.
        let mono_cat = Catalog::new();
        let mut cfg = GenConfig::tiny(2, 20.0, 7);
        cfg.segment_rows = usize::MAX;
        generate_into(&mono_cat, cfg).unwrap();
        assert_eq!(
            caser.data().sorted_rows(),
            mono_cat.get("caser").unwrap().data().sorted_rows()
        );
    }

    #[test]
    fn anomaly_counts_scale_with_pct() {
        let cat = Catalog::new();
        let ds10 = generate_into(&cat, GenConfig::tiny(2, 10.0, 3)).unwrap();
        let cat = Catalog::new();
        let ds40 = generate_into(&cat, GenConfig::tiny(2, 40.0, 3)).unwrap();
        assert!(ds40.counts.total() > 3 * ds10.counts.total());
    }
}
