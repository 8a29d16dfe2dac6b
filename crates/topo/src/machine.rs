//! Core topology data model: hardware threads, cores, tiles, sockets,
//! caches and the interconnect geometry.

use crate::protocol::CoherenceKind;

/// Index of a hardware thread (SMT context), global across the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HwThreadId(pub usize);

/// Index of a physical core, global across the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(pub usize);

/// Index of a tile (a group of cores sharing a mid-level cache), global.
///
/// On machines without a tile concept (e.g. Xeon E5) every core is its own
/// tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TileId(pub usize);

/// Index of a socket (NUMA package), global.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SocketId(pub usize);

/// Position of a tile on a 2D mesh interconnect, in (column, row) units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MeshPos {
    /// Column (x) coordinate.
    pub col: u16,
    /// Row (y) coordinate.
    pub row: u16,
}

impl MeshPos {
    /// Manhattan distance to another mesh position — the hop count of a
    /// dimension-ordered (XY) routed message.
    pub fn hops_to(&self, other: &MeshPos) -> u32 {
        let dc = (self.col as i32 - other.col as i32).unsigned_abs();
        let dr = (self.row as i32 - other.row as i32).unsigned_abs();
        dc + dr
    }
}

/// A hardware thread (SMT context).
#[derive(Debug, Clone)]
pub struct HwThread {
    /// Global id of this hardware thread.
    pub id: HwThreadId,
    /// The physical core hosting this thread.
    pub core: CoreId,
    /// Which SMT slot on the core this thread occupies (0-based).
    pub smt_index: u8,
}

/// A physical core.
#[derive(Debug, Clone)]
pub struct Core {
    /// Global id of this core.
    pub id: CoreId,
    /// The tile this core belongs to.
    pub tile: TileId,
    /// The socket this core belongs to.
    pub socket: SocketId,
    /// Hardware threads hosted on this core, in SMT-slot order.
    pub threads: Vec<HwThreadId>,
}

/// A tile: a set of cores sharing a mid-level (usually L2) cache and one
/// interconnect stop.
#[derive(Debug, Clone)]
pub struct Tile {
    /// Global id of this tile.
    pub id: TileId,
    /// The socket this tile belongs to.
    pub socket: SocketId,
    /// Cores on this tile.
    pub cores: Vec<CoreId>,
    /// Position on a 2D mesh, if the interconnect is a mesh.
    pub mesh_pos: Option<MeshPos>,
    /// Position on a ring (stop index), if the interconnect is a ring.
    pub ring_stop: Option<u16>,
}

/// A socket / package.
#[derive(Debug, Clone)]
pub struct Socket {
    /// Global id of this socket.
    pub id: SocketId,
    /// Tiles on this socket.
    pub tiles: Vec<TileId>,
}

/// Which set of hardware threads share one instance of a cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheSharing {
    /// One instance per core (shared only by SMT siblings).
    PerCore,
    /// One instance per tile.
    PerTile,
    /// One instance per socket (e.g. an inclusive shared LLC).
    PerSocket,
}

/// One level of the cache hierarchy.
#[derive(Debug, Clone)]
pub struct CacheLevel {
    /// Human-readable name, e.g. `"L1d"`.
    pub name: String,
    /// Capacity of one instance in bytes.
    pub size_bytes: usize,
    /// Cache line size in bytes (64 on both paper machines).
    pub line_bytes: usize,
    /// Associativity (ways).
    pub assoc: usize,
    /// Sharing domain of one instance.
    pub sharing: CacheSharing,
    /// Load-to-use hit latency in cycles.
    pub hit_cycles: u32,
}

impl CacheLevel {
    /// Number of sets in one instance.
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.line_bytes * self.assoc)
    }
}

/// The on-chip / cross-chip interconnect geometry.
#[derive(Debug, Clone)]
pub enum Interconnect {
    /// A (bidirectional) ring per socket with a point-to-point link between
    /// sockets, as on Xeon E5 (ring + QPI).
    Ring {
        /// Latency of one ring hop, cycles.
        hop_cycles: u32,
        /// Number of ring stops per socket.
        stops_per_socket: u16,
        /// One-way latency of the cross-socket link, cycles.
        cross_link_cycles: u32,
    },
    /// A 2D mesh with XY routing, as on Knights Landing.
    Mesh {
        /// Columns of the mesh.
        cols: u16,
        /// Rows of the mesh.
        rows: u16,
        /// Latency of one mesh hop, cycles.
        hop_cycles: u32,
    },
    /// A single shared bus/crossbar with uniform latency — used for small
    /// "generic host" topologies where geometry is unknown.
    Uniform {
        /// Flat point-to-point latency, cycles.
        latency_cycles: u32,
    },
}

/// A full machine description.
///
/// Invariants (checked by [`MachineTopology::validate`]):
/// * ids are dense: `threads[i].id == HwThreadId(i)`, same for cores,
///   tiles, sockets;
/// * every containment edge is consistent in both directions.
#[derive(Debug, Clone)]
pub struct MachineTopology {
    /// Human-readable machine name, e.g. `"Intel Xeon E5-2695 v4"`.
    pub name: String,
    /// All hardware threads, indexed by `HwThreadId`.
    pub threads: Vec<HwThread>,
    /// All cores, indexed by `CoreId`.
    pub cores: Vec<Core>,
    /// All tiles, indexed by `TileId`.
    pub tiles: Vec<Tile>,
    /// All sockets, indexed by `SocketId`.
    pub sockets: Vec<Socket>,
    /// Cache hierarchy, ordered from closest (L1) to farthest.
    pub caches: Vec<CacheLevel>,
    /// Interconnect geometry.
    pub interconnect: Interconnect,
    /// Nominal core frequency in GHz (used to convert cycles to seconds).
    pub freq_ghz: f64,
    /// Coherence-protocol family the machine's caches natively implement.
    pub protocol: CoherenceKind,
}

impl MachineTopology {
    /// Total number of hardware threads.
    pub fn num_threads(&self) -> usize {
        self.threads.len()
    }

    /// Total number of physical cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Total number of tiles.
    pub fn num_tiles(&self) -> usize {
        self.tiles.len()
    }

    /// Total number of sockets.
    pub fn num_sockets(&self) -> usize {
        self.sockets.len()
    }

    /// SMT ways (hardware threads per core); assumes homogeneous cores.
    pub fn smt_ways(&self) -> usize {
        self.cores.first().map_or(1, |c| c.threads.len())
    }

    /// Cache line size in bytes (from the first cache level; 64 everywhere
    /// we care about).
    pub fn line_bytes(&self) -> usize {
        self.caches.first().map_or(64, |c| c.line_bytes)
    }

    /// The core hosting hardware thread `t`.
    pub fn core_of(&self, t: HwThreadId) -> &Core {
        &self.cores[self.threads[t.0].core.0]
    }

    /// The tile hosting hardware thread `t`.
    pub fn tile_of(&self, t: HwThreadId) -> &Tile {
        &self.tiles[self.core_of(t).tile.0]
    }

    /// The socket hosting hardware thread `t`.
    pub fn socket_of(&self, t: HwThreadId) -> SocketId {
        self.core_of(t).socket
    }

    /// Convert a cycle count into seconds at the nominal frequency.
    pub fn cycles_to_secs(&self, cycles: f64) -> f64 {
        cycles / (self.freq_ghz * 1e9)
    }

    /// Convert seconds into cycles at the nominal frequency.
    pub fn secs_to_cycles(&self, secs: f64) -> f64 {
        secs * self.freq_ghz * 1e9
    }

    /// Check the structural invariants; returns a description of the first
    /// violation found.
    pub fn validate(&self) -> Result<(), String> {
        for (i, t) in self.threads.iter().enumerate() {
            if t.id.0 != i {
                return Err(format!("thread {i} has non-dense id {:?}", t.id));
            }
            let core = self
                .cores
                .get(t.core.0)
                .ok_or_else(|| format!("thread {i} references missing core {:?}", t.core))?;
            if !core.threads.contains(&t.id) {
                return Err(format!("core {:?} does not list thread {i}", core.id));
            }
            if core.threads.get(t.smt_index as usize) != Some(&t.id) {
                return Err(format!(
                    "thread {i} smt_index {} inconsistent with core {:?} order",
                    t.smt_index, core.id
                ));
            }
        }
        for (i, c) in self.cores.iter().enumerate() {
            if c.id.0 != i {
                return Err(format!("core {i} has non-dense id {:?}", c.id));
            }
            let tile = self
                .tiles
                .get(c.tile.0)
                .ok_or_else(|| format!("core {i} references missing tile {:?}", c.tile))?;
            if !tile.cores.contains(&c.id) {
                return Err(format!("tile {:?} does not list core {i}", tile.id));
            }
            if tile.socket != c.socket {
                return Err(format!(
                    "core {i} socket {:?} != its tile's socket {:?}",
                    c.socket, tile.socket
                ));
            }
            if c.threads.is_empty() {
                return Err(format!("core {i} has no hardware threads"));
            }
        }
        for (i, tl) in self.tiles.iter().enumerate() {
            if tl.id.0 != i {
                return Err(format!("tile {i} has non-dense id {:?}", tl.id));
            }
            let sock = self
                .sockets
                .get(tl.socket.0)
                .ok_or_else(|| format!("tile {i} references missing socket {:?}", tl.socket))?;
            if !sock.tiles.contains(&tl.id) {
                return Err(format!("socket {:?} does not list tile {i}", sock.id));
            }
            if tl.cores.is_empty() {
                return Err(format!("tile {i} has no cores"));
            }
        }
        for (i, s) in self.sockets.iter().enumerate() {
            if s.id.0 != i {
                return Err(format!("socket {i} has non-dense id {:?}", s.id));
            }
            if s.tiles.is_empty() {
                return Err(format!("socket {i} has no tiles"));
            }
        }
        if self.threads.is_empty() {
            return Err("machine has no hardware threads".into());
        }
        if !(self.freq_ghz.is_finite() && self.freq_ghz > 0.0) {
            return Err(format!("non-positive frequency {}", self.freq_ghz));
        }
        if let Interconnect::Mesh { cols, rows, .. } = self.interconnect {
            for tl in &self.tiles {
                match tl.mesh_pos {
                    Some(p) if p.col < cols && p.row < rows => {}
                    Some(p) => {
                        return Err(format!(
                            "tile {:?} mesh position {:?} outside {cols}x{rows} mesh",
                            tl.id, p
                        ))
                    }
                    None => return Err(format!("tile {:?} missing mesh position", tl.id)),
                }
            }
        }
        Ok(())
    }

    /// Build a homogeneous machine: `sockets × tiles_per_socket ×
    /// cores_per_tile × smt` hardware threads, ids assigned in that nesting
    /// order. Mesh/ring positions are left unset; presets fill them in.
    #[allow(clippy::too_many_arguments)] // a constructor enumerating the shape
    pub fn homogeneous(
        name: &str,
        sockets: usize,
        tiles_per_socket: usize,
        cores_per_tile: usize,
        smt: usize,
        caches: Vec<CacheLevel>,
        interconnect: Interconnect,
        freq_ghz: f64,
    ) -> Self {
        assert!(sockets > 0 && tiles_per_socket > 0 && cores_per_tile > 0 && smt > 0);
        let tiles = sockets * tiles_per_socket;
        let cores = tiles * cores_per_tile;
        let mut topo = MachineTopology {
            name: name.to_string(),
            threads: Vec::with_capacity(cores * smt),
            cores: Vec::with_capacity(cores),
            tiles: Vec::with_capacity(tiles),
            sockets: Vec::with_capacity(sockets),
            caches,
            interconnect,
            freq_ghz,
            protocol: CoherenceKind::default(),
        };
        for s in 0..sockets {
            let sid = SocketId(s);
            let mut tile_ids = Vec::with_capacity(tiles_per_socket);
            for _ in 0..tiles_per_socket {
                let tid = TileId(topo.tiles.len());
                let mut core_ids = Vec::with_capacity(cores_per_tile);
                for _ in 0..cores_per_tile {
                    let cid = CoreId(topo.cores.len());
                    let mut thread_ids = Vec::with_capacity(smt);
                    for k in 0..smt {
                        let hid = HwThreadId(topo.threads.len());
                        topo.threads.push(HwThread {
                            id: hid,
                            core: cid,
                            smt_index: k as u8,
                        });
                        thread_ids.push(hid);
                    }
                    topo.cores.push(Core {
                        id: cid,
                        tile: tid,
                        socket: sid,
                        threads: thread_ids,
                    });
                    core_ids.push(cid);
                }
                topo.tiles.push(Tile {
                    id: tid,
                    socket: sid,
                    cores: core_ids,
                    mesh_pos: None,
                    ring_stop: None,
                });
                tile_ids.push(tid);
            }
            topo.sockets.push(Socket {
                id: sid,
                tiles: tile_ids,
            });
        }
        topo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l1() -> CacheLevel {
        CacheLevel {
            name: "L1d".into(),
            size_bytes: 32 * 1024,
            line_bytes: 64,
            assoc: 8,
            sharing: CacheSharing::PerCore,
            hit_cycles: 4,
        }
    }

    #[test]
    fn homogeneous_counts() {
        let m = MachineTopology::homogeneous(
            "t",
            2,
            3,
            2,
            2,
            vec![l1()],
            Interconnect::Uniform { latency_cycles: 40 },
            2.0,
        );
        assert_eq!(m.num_sockets(), 2);
        assert_eq!(m.num_tiles(), 6);
        assert_eq!(m.num_cores(), 12);
        assert_eq!(m.num_threads(), 24);
        assert_eq!(m.smt_ways(), 2);
        m.validate().unwrap();
    }

    #[test]
    fn containment_lookups() {
        let m = MachineTopology::homogeneous(
            "t",
            2,
            2,
            2,
            2,
            vec![l1()],
            Interconnect::Uniform { latency_cycles: 40 },
            2.0,
        );
        // Thread 0 and 1 are SMT siblings on core 0, tile 0, socket 0.
        assert_eq!(m.core_of(HwThreadId(0)).id, CoreId(0));
        assert_eq!(m.core_of(HwThreadId(1)).id, CoreId(0));
        assert_eq!(m.tile_of(HwThreadId(0)).id, TileId(0));
        assert_eq!(m.socket_of(HwThreadId(0)), SocketId(0));
        // Last thread is on the last core of the last socket.
        let last = HwThreadId(m.num_threads() - 1);
        assert_eq!(m.socket_of(last), SocketId(1));
    }

    #[test]
    fn cycle_time_conversions_roundtrip() {
        let m = MachineTopology::homogeneous(
            "t",
            1,
            1,
            1,
            1,
            vec![l1()],
            Interconnect::Uniform { latency_cycles: 1 },
            2.5,
        );
        let secs = m.cycles_to_secs(2.5e9);
        assert!((secs - 1.0).abs() < 1e-12);
        assert!((m.secs_to_cycles(secs) - 2.5e9).abs() < 1e-3);
    }

    #[test]
    fn mesh_pos_hops() {
        let a = MeshPos { col: 1, row: 2 };
        let b = MeshPos { col: 4, row: 0 };
        assert_eq!(a.hops_to(&b), 5);
        assert_eq!(b.hops_to(&a), 5);
        assert_eq!(a.hops_to(&a), 0);
    }

    #[test]
    fn validate_rejects_broken_containment() {
        let mut m = MachineTopology::homogeneous(
            "t",
            1,
            1,
            2,
            1,
            vec![l1()],
            Interconnect::Uniform { latency_cycles: 1 },
            2.0,
        );
        m.cores[0].tile = TileId(99);
        assert!(m.validate().is_err());
    }

    #[test]
    fn validate_rejects_mesh_without_positions() {
        let m = MachineTopology::homogeneous(
            "t",
            1,
            2,
            1,
            1,
            vec![l1()],
            Interconnect::Mesh {
                cols: 2,
                rows: 1,
                hop_cycles: 2,
            },
            2.0,
        );
        // homogeneous() leaves mesh_pos unset.
        assert!(m.validate().is_err());
    }

    #[test]
    fn cache_sets() {
        let c = l1();
        assert_eq!(c.sets(), 32 * 1024 / (64 * 8));
    }
}
