//! Arbitration among queued directory requests: which waiting request
//! is served next when a line frees up. This is where the fairness
//! policies of the paper's Section 5 live (FIFO, random, nearest-first).

use super::Engine;
use crate::config::ArbitrationPolicy;
use crate::probe::Probe;
use rand::Rng;

impl<P: Probe> Engine<P> {
    /// Arbitration: the queue index to serve next, restricted to GetS
    /// requests when `shared_only`.
    pub(super) fn pick_request(&mut self, idx: u32, shared_only: bool) -> Option<usize> {
        let home = self.dir.home_of(idx);
        let entry = self.dir.get_at(idx);
        let eligible: Vec<usize> = entry
            .queue
            .iter()
            .enumerate()
            .filter(|(_, r)| !shared_only || !r.excl)
            .map(|(i, _)| i)
            .collect();
        if eligible.is_empty() {
            return None;
        }
        let anchor = entry.owner.map(|c| self.topo.cores[c].tile).unwrap_or(home);
        match self.cfg.params.arbitration {
            ArbitrationPolicy::Fifo => Some(eligible[0]),
            ArbitrationPolicy::Random => {
                let k = self.rng.gen_range(0..eligible.len());
                Some(eligible[k])
            }
            ArbitrationPolicy::NearestFirst => {
                let entry = self.dir.get_at(idx);
                eligible
                    .into_iter()
                    .min_by_key(|&i| self.hops(anchor, self.tile_of_core(entry.queue[i].core)))
            }
        }
    }
}
