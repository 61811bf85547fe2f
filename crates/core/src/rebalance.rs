//! Elastic topology control: promotion, re-replication, and chunked
//! partition migration.
//!
//! The controller is the only component that mutates the membership replica
//! map after boot. Its contract with the write path (see
//! `ic_storage::write`) is the *ownership stability invariant*: the owner
//! list of partition `p` never changes while `p`'s write guard is held. The
//! controller therefore takes the write guard of partition `p` on **every**
//! hash-partitioned table (in table-id order, so multi-guard acquisition is
//! cycle-free) before promoting, flipping owner lists, or installing the
//! final catch-up copy of a migration. Bulk data movement happens *outside*
//! the guards — a migration ships the frozen snapshot in `chunk_rows`-sized
//! chunks through the fault-injectable replication path while writes keep
//! flowing, then catches up on whatever committed in the meantime during the
//! brief guarded flip.
//!
//! Promotion picks the live owner with the **highest replica version**: a
//! backup that confirmed every acknowledged write is at the primary's
//! version, while a crashed-and-revived replica lags — promoting by version
//! is what makes "kill a site mid-stream" lose zero acknowledged writes.

use ic_common::obs::{Counter, MetricsRegistry};
use ic_net::{NetError, Network, SiteId};
use ic_storage::{Catalog, PartStore, TableData, TableDistribution};
use std::sync::{Arc, OnceLock};

/// What one [`RebalanceController::repair`] pass did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Partitions whose primary was dead and a live backup took over.
    pub promotions: usize,
    /// New backup copies created to return partitions to the target
    /// replication factor.
    pub re_replicated: usize,
    /// Stale live replicas (revived sites) caught up to the primary.
    pub resynced: usize,
    /// Partitions with no live owner at all — unrecoverable until a site
    /// holding a copy revives.
    pub lost_partitions: Vec<usize>,
}

impl RepairReport {
    /// Did this pass change nothing (the cluster was already healthy)?
    pub fn is_noop(&self) -> bool {
        self.promotions == 0
            && self.re_replicated == 0
            && self.resynced == 0
            && self.lost_partitions.is_empty()
    }
}

struct RebalanceMetrics {
    promotions: Arc<Counter>,
    migrations: Arc<Counter>,
    chunks: Arc<Counter>,
}

fn metrics() -> &'static RebalanceMetrics {
    static METRICS: OnceLock<RebalanceMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = MetricsRegistry::global();
        RebalanceMetrics {
            promotions: reg.counter("core.rebalance.promotions"),
            migrations: reg.counter("core.rebalance.migrations"),
            chunks: reg.counter("core.rebalance.chunks"),
        }
    })
}

/// The membership/rebalance controller of one cluster.
pub struct RebalanceController {
    catalog: Arc<Catalog>,
    network: Arc<Network>,
    /// Rows shipped per simulated migration chunk.
    chunk_rows: usize,
}

impl RebalanceController {
    pub fn new(catalog: Arc<Catalog>, network: Arc<Network>) -> RebalanceController {
        RebalanceController { catalog, network, chunk_rows: 256 }
    }

    /// Override the migration chunk size (rows per simulated transfer).
    pub fn with_chunk_rows(mut self, rows: usize) -> RebalanceController {
        self.chunk_rows = rows.max(1);
        self
    }

    /// Every hash-partitioned table's data handle, ascending by table id —
    /// the canonical multi-guard acquisition order.
    fn hash_tables(&self) -> Vec<Arc<TableData>> {
        let mut ids: Vec<_> = self
            .catalog
            .table_names()
            .into_iter()
            .filter_map(|n| self.catalog.table_by_name(&n))
            .collect();
        ids.sort();
        ids.into_iter()
            .filter(|&id| {
                matches!(
                    self.catalog.table_def(id).map(|d| d.distribution),
                    Some(TableDistribution::HashPartitioned { .. })
                )
            })
            .filter_map(|id| self.catalog.table_data(id))
            .collect()
    }

    /// Ship `store`'s rows from row `skip` on from `src` to `dst` in
    /// chunks through the fault-injectable replication path, each row
    /// charged its row-format wire size (a tag byte plus the payload per
    /// value), read off the stored columns. An empty transfer still costs
    /// one control frame. Any link/site fault aborts the transfer.
    fn ship_chunks(
        &self,
        src: SiteId,
        dst: SiteId,
        store: &PartStore,
        skip: usize,
    ) -> Result<(), NetError> {
        let m = metrics();
        let sizes: Vec<usize> = store
            .segments
            .iter()
            .flat_map(|seg| {
                (0..seg.len()).map(move |i| {
                    seg.batch.columns().iter().map(|c| 1 + c.value_byte_size(i)).sum()
                })
            })
            .skip(skip)
            .collect();
        if sizes.is_empty() {
            self.network.replicate(src, dst, 64)?;
            m.chunks.inc();
            return Ok(());
        }
        for chunk in sizes.chunks(self.chunk_rows) {
            self.network.replicate(src, dst, chunk.iter().sum())?;
            m.chunks.inc();
        }
        Ok(())
    }

    /// Copy partition `p` of every table from `src` to `dst`: bulk copy of a
    /// frozen snapshot first (writes keep flowing), then per-table catch-up
    /// and install under the write guard, so the installed replica is exactly
    /// current the moment it becomes visible.
    fn copy_partition(&self, tables: &[Arc<TableData>], p: usize, src: SiteId, dst: SiteId) -> Result<(), NetError> {
        for data in tables {
            // Phase A — bulk ship the current frozen snapshot, unguarded.
            let bulk = data.replica(p, src).unwrap_or_default();
            self.ship_chunks(src, dst, &bulk, 0)?;
            // Phase B — brief guarded catch-up: whatever committed since the
            // snapshot is shipped as one delta frame, then the exact current
            // store is installed.
            let _g = data.write_guard(p);
            let current = data.replica(p, src).unwrap_or_default();
            if current.version != bulk.version {
                let delta = current.len().saturating_sub(bulk.len()).max(1);
                self.ship_chunks(src, dst, &current, current.len().saturating_sub(delta))?;
            }
            data.install_replica(p, dst, current);
        }
        Ok(())
    }

    /// One repair pass: promote live backups over dead primaries, catch up
    /// stale revived replicas, and re-replicate partitions below the target
    /// replication factor. Idempotent — a second pass on a healthy cluster
    /// is a no-op. Returns what was done.
    pub fn repair(&self) -> RepairReport {
        let mut report = RepairReport::default();
        let tables = self.hash_tables();
        let membership = self.catalog.membership();
        let down = self.network.liveness().down_sites();
        let num_partitions = membership.snapshot().num_partitions();
        let target = membership.target_backups() + 1;
        for p in 0..num_partitions {
            let map = membership.snapshot();
            let owners = map.owners_of(p).to_vec();
            let live: Vec<SiteId> =
                owners.iter().copied().filter(|s| !down.contains(s)).collect();
            if live.is_empty() {
                report.lost_partitions.push(p);
                continue;
            }
            // 1. Promotion: the primary must be the live owner with the
            //    highest replica version (it saw every acknowledged write).
            //    That covers both a dead primary and a stale revived one
            //    that a fresher backup must take over from.
            let best = live
                .iter()
                .copied()
                .max_by_key(|&s| (self.version_sum(&tables, p, s), std::cmp::Reverse(s)))
                // ic-lint: allow(L001) because `live` is non-empty here by the check above
                .expect("live owners is non-empty");
            let primary_current = !down.contains(&owners[0])
                && self.version_sum(&tables, p, owners[0])
                    >= self.version_sum(&tables, p, best);
            if !primary_current && best != owners[0] {
                let guards: Vec<_> = tables.iter().map(|d| d.write_guard(p)).collect();
                if membership.promote(p, best).is_some() {
                    metrics().promotions.inc();
                    report.promotions += 1;
                }
                drop(guards);
            }
            // 2. Re-sync: a revived replica that missed writes while it was
            //    down lags the (freshest, post-promotion) primary; copy it
            //    current.
            let map = membership.snapshot();
            let primary = map.primary_of(p);
            let src = if down.contains(&primary) { best } else { primary };
            for &s in map.owners_of(p).to_vec().iter() {
                if s == src || down.contains(&s) {
                    continue;
                }
                let stale = tables.iter().any(|d| {
                    let pv = d.replica(p, src).map(|r| r.version).unwrap_or(0);
                    let sv = d.replica(p, s).map(|r| r.version).unwrap_or(0);
                    sv < pv
                });
                if !stale {
                    continue;
                }
                if self.copy_partition(&tables, p, src, s).is_ok() {
                    report.resynced += 1;
                } else {
                    // The catch-up copy failed (a fault mid-transfer): a
                    // live-but-stale replica must not stay in the owner
                    // list, or reads would route to it and observe state
                    // from before writes this cluster already acknowledged.
                    // Demote it; the re-replication loop below tops the
                    // partition back up from the fresh source.
                    let guards: Vec<_> =
                        tables.iter().map(|d| d.write_guard(p)).collect();
                    let new_owners: Vec<SiteId> = membership
                        .snapshot()
                        .owners_of(p)
                        .iter()
                        .copied()
                        .filter(|&o| o != s)
                        .collect();
                    membership.set_owners(p, new_owners);
                    for data in &tables {
                        data.drop_replica(p, s);
                    }
                    drop(guards);
                }
            }
            // 3. Re-replication: bring the partition back to
            //    target_backups + 1 live copies on the least-loaded members.
            loop {
                let map = membership.snapshot();
                let owners = map.owners_of(p).to_vec();
                let live_owners =
                    owners.iter().filter(|s| !down.contains(s)).count();
                if live_owners >= target {
                    break;
                }
                let Some(candidate) = self.least_loaded_candidate(&map, &owners, &down) else {
                    break;
                };
                // Copy from the freshest live owner, not blindly the
                // primary — a stale revived primary must never seed a new
                // replica while a fresher backup exists.
                let Some(src) = owners
                    .iter()
                    .copied()
                    .filter(|s| !down.contains(s))
                    .max_by_key(|&s| (self.version_sum(&tables, p, s), std::cmp::Reverse(s)))
                else {
                    break;
                };
                if self.copy_partition(&tables, p, src, candidate).is_err() {
                    break;
                }
                let guards: Vec<_> = tables.iter().map(|d| d.write_guard(p)).collect();
                let mut new_owners = membership.snapshot().owners_of(p).to_vec();
                new_owners.push(candidate);
                membership.set_owners(p, new_owners);
                drop(guards);
                metrics().migrations.inc();
                report.re_replicated += 1;
            }
        }
        report
    }

    /// Sum of `site`'s replica versions at partition `p` across all tables —
    /// the promotion fitness (higher = saw more acknowledged writes).
    fn version_sum(&self, tables: &[Arc<TableData>], p: usize, site: SiteId) -> u64 {
        tables.iter().map(|d| d.replica(p, site).map(|r| r.version).unwrap_or(0)).sum()
    }

    /// The live member hosting the fewest replicas that does not already own
    /// a copy of the partition.
    fn least_loaded_candidate(
        &self,
        map: &ic_net::ReplicaMap,
        owners: &[SiteId],
        down: &ic_common::hash::FxHashSet<SiteId>,
    ) -> Option<SiteId> {
        map.members()
            .iter()
            .copied()
            .filter(|s| !down.contains(s) && !owners.contains(s))
            .min_by_key(|&s| (map.partitions_hosted_by(s).len(), s))
    }

    /// Admit a new site and migrate partition replicas onto it until its
    /// load reaches the cluster average, in chunk-sized transfers that run
    /// concurrently with queries and writes. Returns the number of replicas
    /// migrated.
    pub fn join_site(&self, site: SiteId) -> usize {
        let membership = self.catalog.membership();
        membership.add_member(site);
        self.network.liveness().mark_alive(site);
        let tables = self.hash_tables();
        let down = self.network.liveness().down_sites();
        let mut migrated = 0usize;
        loop {
            let map = membership.snapshot();
            let members = map.members().len().max(1);
            let total_slots: usize =
                (0..map.num_partitions()).map(|p| map.owners_of(p).len()).sum();
            let fair_share = total_slots / members;
            let my_load = map.partitions_hosted_by(site).len();
            if my_load >= fair_share {
                break;
            }
            // Donor: the most-loaded live member; move one of its replicas
            // (a partition the joiner does not already host) to the joiner.
            let Some((donor, p)) = map
                .members()
                .iter()
                .copied()
                .filter(|&s| s != site && !down.contains(&s))
                .map(|s| (map.partitions_hosted_by(s).len(), s))
                .filter(|&(load, _)| load > my_load)
                .max_by_key(|&(load, s)| (load, std::cmp::Reverse(s)))
                .and_then(|(_, donor)| {
                    (0..map.num_partitions())
                        .find(|&p| {
                            map.owners_of(p).contains(&donor)
                                && !map.owners_of(p).contains(&site)
                        })
                        .map(|p| (donor, p))
                })
            else {
                break;
            };
            // Source the copy from the freshest live owner. The donor is a
            // live owner itself, so the best is at least as new as what the
            // donor holds — dropping the donor's replica afterwards can
            // never destroy the newest copy.
            let Some(src) = map
                .owners_of(p)
                .iter()
                .copied()
                .filter(|s| !down.contains(s))
                .max_by_key(|&s| (self.version_sum(&tables, p, s), std::cmp::Reverse(s)))
            else {
                break;
            };
            if self.copy_partition(&tables, p, src, site).is_err() {
                break;
            }
            let guards: Vec<_> = tables.iter().map(|d| d.write_guard(p)).collect();
            let owners: Vec<SiteId> = membership
                .snapshot()
                .owners_of(p)
                .iter()
                .map(|&s| if s == donor { site } else { s })
                .collect();
            membership.set_owners(p, owners);
            for data in &tables {
                data.drop_replica(p, donor);
            }
            drop(guards);
            metrics().migrations.inc();
            migrated += 1;
        }
        migrated
    }

    /// Gracefully retire a site: promote away its primaries, re-replicate
    /// its copies onto the remaining members, then remove it from the
    /// cluster and drop its replicas. Returns the number of partitions that
    /// had to move data.
    pub fn leave_site(&self, site: SiteId) -> usize {
        let membership = self.catalog.membership();
        let tables = self.hash_tables();
        let down = self.network.liveness().down_sites();
        let mut moved = 0usize;
        let mut clean = true;
        let hosted = membership.snapshot().partitions_hosted_by(site);
        for p in hosted {
            let map = membership.snapshot();
            let owners = map.owners_of(p).to_vec();
            let survivors: Vec<SiteId> =
                owners.iter().copied().filter(|&s| s != site && !down.contains(&s)).collect();
            // The departing replica may be the freshest copy (a survivor can
            // be a stale revived backup): catch every survivor up from the
            // highest-version live owner before the leaver's copy goes away.
            // A fault can abort a catch-up mid-copy; that is only dangerous
            // when the *leaver* is the freshest source — then the handoff
            // must not complete, or the newest copy would be destroyed.
            let best = owners
                .iter()
                .copied()
                .filter(|s| !down.contains(s))
                .max_by_key(|&s| (self.version_sum(&tables, p, s), std::cmp::Reverse(s)));
            let mut handed_off = true;
            if let Some(best) = best {
                for &s in &survivors {
                    if s != best
                        && self.version_sum(&tables, p, s) < self.version_sum(&tables, p, best)
                        && self.copy_partition(&tables, p, best, s).is_err()
                        && best == site
                    {
                        handed_off = false;
                    }
                }
            }
            if !handed_off {
                clean = false;
                continue;
            }
            // The departing site may hold the only copy: hand it to the
            // least-loaded member first.
            let replacement = if survivors.is_empty() {
                match self.least_loaded_candidate(&map, &owners, &down) {
                    Some(c) => {
                        if self.copy_partition(&tables, p, site, c).is_err() {
                            clean = false;
                            continue;
                        }
                        moved += 1;
                        metrics().migrations.inc();
                        Some(c)
                    }
                    None => {
                        // Nowhere to put it; keep the site's copy and its
                        // owner slot so the data stays reachable.
                        clean = false;
                        continue;
                    }
                }
            } else {
                None
            };
            let guards: Vec<_> = tables.iter().map(|d| d.write_guard(p)).collect();
            let mut new_owners: Vec<SiteId> =
                owners.iter().copied().filter(|&s| s != site).collect();
            if let Some(c) = replacement {
                new_owners.push(c);
            }
            membership.set_owners(p, new_owners);
            for data in &tables {
                data.drop_replica(p, site);
            }
            drop(guards);
        }
        // Complete the departure only if every hosted partition was handed
        // off; otherwise the site stays a member (still owning the partitions
        // that could not move) so no owner list points at scrubbed data, and
        // a later leave can retry.
        if clean {
            membership.remove_member(site);
        }
        // Top the cluster back up to the target replication factor.
        let report = self.repair();
        moved + report.re_replicated
    }
}
