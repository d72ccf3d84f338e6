//! Trapped-ion QCCD grid substrate.
//!
//! The TISCC hardware model (paper Sec. 3.1) arranges trapping zones in an
//! arbitrarily large rectangular grid built from a repeating unit
//! `{M, O, M, J, M, O, M}`: two straight three-zone segments — one pointing
//! down-ward, one pointing right-ward — connected by a junction. Ions (data
//! and syndrome qubits) live on memory/operation zones and are shuttled
//! between zones and through junctions; ions may never rest on a junction.
//!
//! This crate provides:
//! * [`QSite`] / [`SiteKind`] — addresses and roles of quantum sites,
//! * [`Layout`] — the repeating-unit geometry, adjacency, physical size and
//!   the dense site index every per-site table is addressed by,
//! * [`GridManager`] — ion occupancy tracking with collision checks,
//! * [`path`] — shuttle/junction-hop routing between zones ([`Router`])
//!   and the tile-grid corridor search ([`TileSearch`] over a [`TileFrame`]).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod grid;
pub mod layout;
pub mod path;
pub mod site;

pub use grid::{GridError, GridManager, QubitId};
pub use layout::{Layout, ZONE_WIDTH_M};
pub use path::{route, route_avoiding, MoveStep, Router, TileFrame, TileSearch};
pub use site::{QSite, SiteKind};
