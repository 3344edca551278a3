//! Component client affinity: placement components and the client
//! scripts that keep each client inside one of them.
//!
//! A *placement component* is a connected component of the "shares
//! fate" relation over SSD groups. Two groups are tied together when
//! some file stripes objects across both (degraded reads and RAID-5
//! rebuilds reach a file's sibling objects in other groups) or when one
//! trace user touches files in both (a user's records run in one
//! client's closed loop). [`ClientAffinity::Component`] carves the
//! client slots per component so no client's records cross one; the
//! inode-stride trace transform is what splits a large cluster into
//! many components in the first place.
//!
//! [`ClientAffinity::Component`]: crate::sim::ClientAffinity::Component

use std::collections::HashMap;

use edm_workload::{FileId, Trace};

use crate::cluster::Cluster;

/// Union-find over group indices, used to build the component map.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]]; // path halving
            x = self.parent[x];
        }
        x
    }

    fn unite(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        // Root at the smaller index so numbering is canonical.
        let (lo, hi) = if ra <= rb { (ra, rb) } else { (rb, ra) };
        self.parent[hi] = lo;
    }
}

/// Computes the component id of every SSD group: files unite the groups
/// they stripe across, users unite the groups of every file they touch.
/// Components are numbered in ascending order of their first group.
fn component_map(cluster: &Cluster, trace: &Trace) -> (Vec<usize>, usize) {
    let placement = *cluster.catalog.placement();
    let m = placement.groups as usize;
    let mut uf = UnionFind::new(m);
    let group_of_file = |file: FileId| placement.group_of(placement.home_osd(file, 0)).0 as usize;
    // A file's objects span up to k home groups; degraded reads and
    // rebuilds reach the sibling objects, so all of them must cohabit —
    // for every cataloged file, accessed or not (a failure rebuilds
    // everything on the dead device).
    for meta in cluster.catalog.files() {
        let first = group_of_file(meta.file);
        for i in 1..meta.objects.len() {
            let osd = placement.home_osd(meta.file, i as u32);
            uf.unite(first, placement.group_of(osd).0 as usize);
        }
    }
    // All groups one user touches must cohabit (the user's records run
    // in one client's closed loop). Each file's groups are already
    // united, so its first group stands for all of them.
    let mut user_group: HashMap<u32, usize> = HashMap::new();
    for r in &trace.records {
        let g = group_of_file(r.file);
        match user_group.entry(r.user) {
            std::collections::hash_map::Entry::Occupied(e) => uf.unite(*e.get(), g),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(g);
            }
        }
    }
    let mut comp_of_group = vec![0usize; m];
    let mut root_comp: HashMap<usize, usize> = HashMap::new();
    let mut ncomponents = 0usize;
    for (g, slot) in comp_of_group.iter_mut().enumerate() {
        let root = uf.find(g);
        *slot = *root_comp.entry(root).or_insert_with(|| {
            let c = ncomponents;
            ncomponents += 1;
            c
        });
    }
    (comp_of_group, ncomponents)
}

/// Builds the client scripts for [`ClientAffinity::Component`]: client
/// slots are carved per component (proportional to record counts, at
/// least one per non-empty component), then users round-robin onto their
/// component's slots in order of first appearance. Per-user record order
/// is trace order, exactly as in the default assignment.
pub(crate) fn component_scripts(cluster: &Cluster, trace: &Trace, clients: u32) -> Vec<Vec<usize>> {
    assert!(clients > 0, "need at least one client");
    let placement = *cluster.catalog.placement();
    let (comp_of_group, ncomponents) = component_map(cluster, trace);
    let comp_of_file =
        |file: FileId| comp_of_group[placement.group_of(placement.home_osd(file, 0)).0 as usize];

    let mut comp_records = vec![0u64; ncomponents];
    for r in &trace.records {
        comp_records[comp_of_file(r.file)] += 1;
    }
    let nonempty: Vec<usize> = (0..ncomponents).filter(|&c| comp_records[c] > 0).collect();
    let total_clients = (clients as usize).max(nonempty.len());
    if nonempty.is_empty() {
        return vec![Vec::new(); total_clients];
    }

    // Slot allocation: floor of the proportional share, floored at one,
    // then corrected to the exact total — overshoot trimmed from the
    // largest allocations, leftovers handed out by descending record
    // count. Every rule breaks ties on component id, so the split is a
    // pure function of (placement, trace, clients).
    let total_records: u64 = comp_records.iter().sum();
    let mut slots = vec![0usize; ncomponents];
    for &c in &nonempty {
        slots[c] = ((total_clients as u64 * comp_records[c] / total_records) as usize).max(1);
    }
    let mut assigned: usize = slots.iter().sum();
    while assigned > total_clients {
        let c = nonempty
            .iter()
            .copied()
            .filter(|&c| slots[c] > 1)
            .max_by_key(|&c| (slots[c], c))
            // edm-audit: allow(panic.expect, "assigned > total_clients >= nonempty count, so some component holds more than one slot")
            .expect("overshoot implies a multi-slot component");
        slots[c] -= 1;
        assigned -= 1;
    }
    let mut by_weight = nonempty.clone();
    by_weight.sort_by_key(|&c| (std::cmp::Reverse(comp_records[c]), c));
    let mut i = 0;
    while assigned < total_clients {
        slots[by_weight[i % by_weight.len()]] += 1;
        assigned += 1;
        i += 1;
    }

    // Contiguous slot ranges in component order.
    let mut start = vec![0usize; ncomponents];
    let mut acc = 0usize;
    for (c, s) in start.iter_mut().enumerate() {
        *s = acc;
        acc += slots[c];
    }
    debug_assert_eq!(acc, total_clients);

    let mut scripts: Vec<Vec<usize>> = vec![Vec::new(); total_clients];
    let mut user_slot: HashMap<u32, usize> = HashMap::new();
    let mut next_in_comp = vec![0usize; ncomponents];
    for (i, r) in trace.records.iter().enumerate() {
        let slot = *user_slot.entry(r.user).or_insert_with(|| {
            let c = comp_of_file(r.file);
            let s = start[c] + next_in_comp[c];
            next_in_comp[c] = (next_in_comp[c] + 1) % slots[c];
            s
        });
        scripts[slot].push(i);
    }
    scripts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use edm_workload::{FileOp, TraceRecord};

    /// 8 OSDs in 4 groups, two objects per file: file *f*'s objects land
    /// on OSDs `f % 8` and `(f+1) % 8`, i.e. groups `f % 4` and
    /// `(f+1) % 4`. Using only file ids ≡ 0 and ≡ 2 (mod 4) ties groups
    /// {0, 1} and {2, 3} into two disjoint components.
    fn two_component_config() -> ClusterConfig {
        ClusterConfig {
            osds: 8,
            groups: 4,
            objects_per_file: 2,
            skip_warm_up: true,
            clients: Some(4),
            ..ClusterConfig::paper(8)
        }
    }

    /// Users 0/2 touch component {0,1} files, users 1/3 component {2,3}
    /// files → two components.
    fn two_component_trace() -> Trace {
        let mut t = Trace::new("two-comp");
        for f in (0u64..32).step_by(2) {
            t.file_sizes.insert(FileId(f), 1 << 20);
        }
        let mut now = 0u64;
        for i in 0u64..240 {
            let user = (i % 4) as u32;
            let file = FileId(2 * (user as u64 % 2) + 4 * ((i / 4) % 8));
            let op = if i % 3 == 0 {
                FileOp::Read {
                    offset: (i % 7) * 4096,
                    len: 8192,
                }
            } else {
                FileOp::Write {
                    offset: (i % 11) * 4096,
                    len: 16384,
                }
            };
            t.records.push(TraceRecord {
                time_us: now,
                user,
                file,
                op,
            });
            now += 100;
        }
        t
    }

    #[test]
    fn component_map_splits_disjoint_groups() {
        let trace = two_component_trace();
        let cluster = Cluster::build(two_component_config(), &trace).unwrap();
        let (comp_of_group, n) = component_map(&cluster, &trace);
        assert_eq!(n, 2);
        assert_eq!(comp_of_group, vec![0, 0, 1, 1]);
    }

    #[test]
    fn component_scripts_cover_every_record_once() {
        let trace = two_component_trace();
        let cluster = Cluster::build(two_component_config(), &trace).unwrap();
        let scripts = component_scripts(&cluster, &trace, 4);
        assert_eq!(scripts.len(), 4);
        let mut seen = vec![false; trace.records.len()];
        for s in &scripts {
            for w in s.windows(2) {
                assert!(w[0] < w[1], "per-client order must be trace order");
            }
            for &i in s {
                assert!(!seen[i], "record {i} assigned twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "record left unassigned");
        // Each script stays inside one component.
        let placement = *cluster.catalog.placement();
        let (comp_of_group, _) = component_map(&cluster, &trace);
        for s in scripts.iter().filter(|s| !s.is_empty()) {
            let comp = |i: usize| {
                comp_of_group[placement
                    .group_of(placement.home_osd(trace.records[i].file, 0))
                    .0 as usize]
            };
            let first = comp(s[0]);
            assert!(s.iter().all(|&i| comp(i) == first));
        }
    }

    #[test]
    fn component_scripts_raise_client_count_when_needed() {
        let trace = two_component_trace();
        let cluster = Cluster::build(two_component_config(), &trace).unwrap();
        // Fewer requested clients than components: one slot each.
        let scripts = component_scripts(&cluster, &trace, 1);
        assert_eq!(scripts.len(), 2);
        assert!(scripts.iter().all(|s| !s.is_empty()));
    }
}
