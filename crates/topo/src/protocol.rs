//! The coherence-protocol family a machine's caches implement.
//!
//! The simulator prices every atomic by the cost of bouncing a cache line
//! under a concrete invalidation protocol. Real machines differ: Intel
//! parts speak MESIF (a clean Forward copy answers read misses
//! cache-to-cache), AMD parts speak MOESI (a dirty Owned copy is shared
//! without writing it back), and simpler designs speak plain MESI (clean
//! shared data always comes from the home/memory). The kind lives on the
//! topology so presets can name their native protocol; the simulator's
//! `CoherenceProtocol` implementations (in `bounce-sim`) are selected by
//! this tag.

/// Which coherence-protocol family to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CoherenceKind {
    /// MESI + Forward: one clean sharer is designated to answer read
    /// misses cache-to-cache (Intel servers; today's default).
    #[default]
    Mesif,
    /// Plain MESI: no Forward state, clean shared reads are served by
    /// the home node / memory (Knights Landing's tile-local flavour).
    Mesi,
    /// MESI + Owned: a dirty line can be shared without writing it back;
    /// the Owned copy keeps supplying readers (AMD-style).
    Moesi,
}

impl CoherenceKind {
    /// Every protocol, in display order.
    pub const ALL: [CoherenceKind; 3] = [
        CoherenceKind::Mesif,
        CoherenceKind::Moesi,
        CoherenceKind::Mesi,
    ];

    /// Lower-case CLI/config label.
    pub fn label(&self) -> &'static str {
        match self {
            CoherenceKind::Mesif => "mesif",
            CoherenceKind::Mesi => "mesi",
            CoherenceKind::Moesi => "moesi",
        }
    }

    /// Parse a CLI/config label (case-insensitive).
    pub fn from_label(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "mesif" => Some(CoherenceKind::Mesif),
            "mesi" => Some(CoherenceKind::Mesi),
            "moesi" => Some(CoherenceKind::Moesi),
            _ => None,
        }
    }
}

impl std::fmt::Display for CoherenceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for k in CoherenceKind::ALL {
            assert_eq!(CoherenceKind::from_label(k.label()), Some(k));
        }
        assert_eq!(
            CoherenceKind::from_label("MESIF"),
            Some(CoherenceKind::Mesif)
        );
        assert_eq!(CoherenceKind::from_label("mosi"), None);
    }

    #[test]
    fn default_is_mesif() {
        assert_eq!(CoherenceKind::default(), CoherenceKind::Mesif);
    }
}
