//! Arbitration among queued directory requests: which waiting request
//! is served next when a line frees up. This is where the fairness
//! policies of the paper's Section 5 live (FIFO, random, nearest-first).

use super::Engine;
use crate::config::ArbitrationPolicy;
use crate::probe::Probe;
use rand::Rng;

impl<P: Probe> Engine<P> {
    /// Arbitration: the queue position to serve next, or `None` when
    /// nothing waits. Every waiting request is eligible: `pump` only
    /// picks while no GetM waits behind reads in service.
    ///
    /// FIFO serves the oldest request; random draws one position
    /// uniformly (one RNG draw per pick); nearest-first serves the
    /// oldest of the requests closest in hops to the current owner's
    /// tile, or to the home tile of an unowned line.
    pub(super) fn pick_request(&mut self, idx: u32) -> Option<usize> {
        let entry = self.dir.get_at(idx);
        let len = entry.queue().len();
        if len == 0 {
            return None;
        }
        match self.cfg.params.arbitration {
            ArbitrationPolicy::Fifo => Some(0),
            ArbitrationPolicy::Random => Some(self.rng.gen_range(0..len)),
            ArbitrationPolicy::NearestFirst => {
                let anchor = entry
                    .owner
                    .map(|c| self.tile_of_core(c))
                    .unwrap_or_else(|| self.dir.home_of(idx));
                // A plain loop rather than `min_by_key`: that adapter
                // chain compiles to a closure call per request, twice the
                // cost on a deep queue.
                let (mut best, mut pick) = (u32::MAX, 0);
                for (i, r) in entry.queue().iter().enumerate() {
                    let h = self.hops(anchor, self.tile_of_core(r.core as usize));
                    if h < best {
                        (best, pick) = (h, i);
                    }
                }
                Some(pick)
            }
        }
    }
}
