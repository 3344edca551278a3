//! Cluster construction: capacity sizing, file pre-creation, and the
//! steady-state warm-up (§IV–§V.A).

use edm_snap::{SnapReader, SnapWriter, Snapshot};
use edm_workload::Trace;

use crate::catalog::Catalog;
use crate::config::ClusterConfig;
use crate::ids::{ObjectId, OsdId};
use crate::migrate::{ClusterView, ObjectView, OsdView};
use crate::osd::Osd;

/// A built cluster: the metadata catalog plus its storage nodes, ready for
/// replay.
pub struct Cluster {
    pub config: ClusterConfig,
    pub catalog: Catalog,
    pub osds: Vec<Osd>,
}

impl Cluster {
    /// Builds the cluster for one trace:
    ///
    /// 1. registers every file of the trace (k objects each, hash placed);
    /// 2. sizes every SSD identically so the *most* utilized one sits at
    ///    `target_max_utilization` ("the capacity of each SSD is set the
    ///    same dynamically before running each trace-replaying program,
    ///    which allows the maximum utilization among all SSDs is about 70
    ///    percent", §IV);
    /// 3. pre-creates and populates all objects (§V.A);
    /// 4. runs the steady-state warm-up and zeroes wear counters.
    pub fn build(config: ClusterConfig, trace: &Trace) -> Result<Cluster, String> {
        config.validate()?;
        let mut catalog = Catalog::new(config.placement(), config.stripe_layout());
        for (&file, &size) in &trace.file_sizes {
            catalog.create_file(file, size);
        }

        // Footprint per OSD under pure hash placement.
        let mut footprint = vec![0u64; config.osds as usize];
        for meta in catalog.files() {
            for (i, &obj) in meta.objects.iter().enumerate() {
                let osd = catalog.placement().home_osd(meta.file, i as u32);
                debug_assert_eq!(catalog.locate(obj), osd);
                footprint[osd.0 as usize] += meta.object_size;
            }
        }
        let max_footprint = footprint.iter().copied().max().unwrap_or(0).max(1);
        let capacity = (max_footprint as f64 / config.target_max_utilization) as u64;

        let mut osds: Vec<Osd> = (0..config.osds)
            .map(|i| Osd::with_ftl(OsdId(i), capacity, config.latency, config.ftl))
            .collect();

        // Pre-create and populate every object (setup is untimed).
        for meta in catalog.files() {
            for &obj in &meta.objects {
                let osd = catalog.locate(obj);
                osds[osd.0 as usize]
                    .create_object(obj, meta.object_size, true)
                    .map_err(|e| format!("pre-creating {obj} on {osd}: {e}"))?;
            }
        }

        if config.skip_warm_up {
            for osd in &mut osds {
                osd.reset_wear();
            }
        } else {
            for osd in &mut osds {
                osd.warm_up().map_err(|e| format!("warm-up: {e}"))?;
            }
        }

        Ok(Cluster {
            config,
            catalog,
            osds,
        })
    }

    pub fn osd(&self, id: OsdId) -> &Osd {
        &self.osds[id.0 as usize]
    }

    pub fn osd_mut(&mut self, id: OsdId) -> &mut Osd {
        &mut self.osds[id.0 as usize]
    }

    /// Maximum utilization across OSDs (should be ≈ the configured target
    /// right after build).
    pub fn max_utilization(&self) -> f64 {
        self.osds
            .iter()
            .map(|o| o.utilization())
            .fold(0.0, f64::max)
    }

    /// Builds the policy-facing snapshot (§III.B inputs).
    pub fn view(&self, now_us: u64) -> ClusterView {
        let placement = self.catalog.placement();
        // edm-audit: allow(panic.slice_index, "ClusterConfig validation guarantees at least one OSD")
        let page_size = self.osds[0].ssd().geometry().page_size;
        // edm-audit: allow(panic.slice_index, "ClusterConfig validation guarantees at least one OSD")
        let pages_per_block = self.osds[0].ssd().geometry().pages_per_block;
        let osds = self
            .osds
            .iter()
            .map(|o| OsdView {
                osd: o.id,
                group: placement.group_of(o.id),
                wc_pages: o.wc_window_pages(),
                utilization: o.utilization(),
                measured_erases: o.ssd().wear().block_erases,
                ewma_latency_us: o.ewma_latency_us(),
                free_bytes: o.free_bytes(),
                capacity_bytes: o.capacity_bytes(),
            })
            .collect();
        let mut objects = Vec::with_capacity(self.catalog.total_objects() as usize);
        for meta in self.catalog.files() {
            for &obj in &meta.objects {
                objects.push(ObjectView {
                    object: obj,
                    osd: self.catalog.locate(obj),
                    size_bytes: meta.object_size,
                    remapped: self.catalog.remap().contains(obj),
                });
            }
        }
        ClusterView {
            now_us,
            page_size,
            pages_per_block,
            osds,
            objects,
        }
    }

    /// Object size lookup through the catalog.
    pub fn object_size(&self, object: ObjectId) -> Option<u64> {
        let (file, _) = self.catalog.placement().object_owner(object);
        self.catalog.file(file).map(|m| m.object_size)
    }

    /// Structural invariants of a quiescent cluster (post-build or
    /// end-of-run), for the differential fuzzer's policy oracle:
    ///
    /// 1. per-device accounting stays inside capacity;
    /// 2. the remapping table only overlays cataloged objects, never maps
    ///    an object to its home OSD (such entries are pruned on return),
    ///    and never points outside the cluster — and being a map keyed by
    ///    object id it cannot hold duplicate entries, so the overlay stays
    ///    one-to-one;
    /// 3. every cataloged object is present in the directory of exactly
    ///    the OSD the catalog locates it on, and no OSD holds objects the
    ///    catalog does not place there;
    /// 4. no two objects of one file share an SSD group (RAID-5 fault
    ///    independence, §III.D) — placement guarantees it initially and
    ///    intra-group migration/rebuild must preserve it. Only checked
    ///    when `enforce_group_independence` is set: the CMT baseline
    ///    deliberately ignores group boundaries (its moves may co-locate
    ///    a file's objects), while the EDM policies and rebuild must not.
    ///
    /// `failed_osds` are devices killed by fault injection: objects still
    /// located there may be lost (directory emptied on failure), so they
    /// are exempt from the presence and group checks.
    pub fn check_invariants(
        &self,
        failed_osds: &[u32],
        enforce_group_independence: bool,
    ) -> Result<(), String> {
        self.config.validate()?;
        let placement = *self.catalog.placement();
        for osd in &self.osds {
            let u = osd.utilization();
            if !(0.0..=1.0).contains(&u) {
                return Err(format!("{}: utilization {u} outside [0, 1]", osd.id));
            }
            if osd.free_bytes() > osd.capacity_bytes() {
                return Err(format!(
                    "{}: free bytes {} exceed capacity {}",
                    osd.id,
                    osd.free_bytes(),
                    osd.capacity_bytes()
                ));
            }
        }
        for (object, dest) in self.catalog.remap().iter() {
            if dest.0 >= self.config.osds {
                return Err(format!("remap entry {object} -> {dest}: no such OSD"));
            }
            let (file, index) = placement.object_owner(object);
            let known = self
                .catalog
                .file(file)
                .is_some_and(|m| m.objects.get(index as usize) == Some(&object));
            if !known {
                return Err(format!(
                    "remap entry {object} -> {dest}: object is not in the catalog"
                ));
            }
            if dest == self.catalog.home_of(object) {
                return Err(format!(
                    "remap entry {object} -> {dest}: points at the object's home \
                     (home entries must be pruned)"
                ));
            }
        }
        let mut expected = vec![0u64; self.config.osds as usize];
        for meta in self.catalog.files() {
            let mut groups_seen: Vec<crate::ids::GroupId> = Vec::new();
            for &obj in &meta.objects {
                let loc = self.catalog.locate(obj);
                let Some(osd) = self.osds.get(loc.0 as usize) else {
                    return Err(format!("{obj} located on nonexistent {loc}"));
                };
                if failed_osds.contains(&loc.0) {
                    continue; // possibly lost with its device
                }
                if !osd.has_object(obj) {
                    return Err(format!(
                        "{obj} located on {loc} but absent from its directory"
                    ));
                }
                if let Some(slot) = expected.get_mut(loc.0 as usize) {
                    *slot += 1;
                }
                if enforce_group_independence {
                    let g = placement.group_of(loc);
                    if groups_seen.contains(&g) {
                        return Err(format!(
                            "file {:?}: two objects share {g} — RAID-5 fault independence broken",
                            meta.file
                        ));
                    }
                    groups_seen.push(g);
                }
            }
        }
        for osd in &self.osds {
            if failed_osds.contains(&osd.id.0) {
                continue;
            }
            let have = osd.object_count() as u64;
            let want = expected.get(osd.id.0 as usize).copied().unwrap_or(0);
            if have != want {
                return Err(format!(
                    "{}: directory holds {have} objects but the catalog places {want} there",
                    osd.id
                ));
            }
        }
        Ok(())
    }
}

impl Snapshot for Cluster {
    fn save(&self, w: &mut SnapWriter) {
        self.config.save(w);
        self.catalog.save(w);
        self.osds.save(w);
    }
    fn load(r: &mut SnapReader) -> Self {
        let c = Cluster {
            config: ClusterConfig::load(r),
            catalog: Catalog::load(r),
            osds: Vec::load(r),
        };
        if !r.failed() && c.osds.len() != c.config.osds as usize {
            r.corrupt(format!(
                "cluster has {} OSDs but config says {}",
                c.osds.len(),
                c.config.osds
            ));
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edm_workload::{harvard, synth::synthesize};

    fn small_trace() -> Trace {
        synthesize(&harvard::spec("deasna").scaled(0.002))
    }

    #[test]
    fn build_places_every_object() {
        let trace = small_trace();
        let c = Cluster::build(ClusterConfig::test_small(), &trace).unwrap();
        let files = trace.file_sizes.len();
        let total: usize = c.osds.iter().map(|o| o.object_count()).sum();
        assert_eq!(total, files * 4);
        assert_eq!(c.catalog.total_objects(), (files * 4) as u64);
    }

    #[test]
    fn max_utilization_near_target() {
        let trace = small_trace();
        let c = Cluster::build(ClusterConfig::test_small(), &trace).unwrap();
        let max = c.max_utilization();
        assert!(
            (max - 0.70).abs() < 0.05,
            "max utilization {max} should be ≈ 0.70"
        );
    }

    #[test]
    fn wear_counters_are_zero_after_build() {
        let trace = small_trace();
        let c = Cluster::build(ClusterConfig::test_small(), &trace).unwrap();
        for osd in &c.osds {
            assert_eq!(osd.ssd().wear().host_page_writes, 0);
            assert_eq!(osd.wc_window_pages(), 0);
        }
    }

    #[test]
    fn view_is_complete_and_consistent() {
        let trace = small_trace();
        let c = Cluster::build(ClusterConfig::test_small(), &trace).unwrap();
        let v = c.view(123);
        assert_eq!(v.now_us, 123);
        assert_eq!(v.osds.len(), 8);
        assert_eq!(v.objects.len(), c.catalog.total_objects() as usize);
        assert_eq!(v.page_size, 4096);
        assert_eq!(v.pages_per_block, 32);
        for o in &v.objects {
            assert!(!o.remapped);
            assert!(o.size_bytes > 0);
            assert!(c.osd(o.osd).has_object(o.object));
        }
    }

    #[test]
    fn all_osds_get_same_capacity() {
        let trace = small_trace();
        let c = Cluster::build(ClusterConfig::test_small(), &trace).unwrap();
        let cap = c.osds[0].capacity_bytes();
        assert!(c.osds.iter().all(|o| o.capacity_bytes() == cap));
    }

    #[test]
    fn invalid_config_is_reported() {
        let mut cfg = ClusterConfig::test_small();
        cfg.target_max_utilization = 0.0;
        assert!(Cluster::build(cfg, &small_trace()).is_err());
    }
}
