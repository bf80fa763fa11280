//! Graph substrate and topology generators for network-tomography
//! experiments.
//!
//! The scapegoating paper evaluates on three topology families, all of
//! which this crate provides:
//!
//! * the **Fig. 1 example network** (7 nodes, 10 links, 3 monitors) —
//!   [`topology::fig1`],
//! * **wireline ISP backbones** (the paper uses Rocketfuel AS1221) — a
//!   [`rocketfuel`] parser for the real dataset plus a seeded synthetic
//!   stand-in, [`isp::IspConfig`],
//! * **wireless multi-hop networks** modeled as random geometric graphs —
//!   [`rgg::RggConfig`].
//!
//! On top of the plain [`Graph`] type it implements the path machinery
//! tomography needs: BFS and Yen k-shortest paths
//! ([`shortest`]) and bounded simple-path enumeration ([`enumerate`]).
//!
//! # Example
//!
//! ```
//! use tomo_graph::topology;
//!
//! let fig1 = topology::fig1();
//! assert_eq!(fig1.graph.num_nodes(), 7);
//! assert_eq!(fig1.graph.num_links(), 10);
//! assert_eq!(fig1.monitors.len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod graph;
mod ids;
mod path;

pub mod dot;
pub mod enumerate;
pub mod isp;
pub mod rgg;
pub mod rocketfuel;
pub mod shortest;
pub mod stats;
pub mod topology;
pub mod traversal;
pub mod waxman;

pub use error::GraphError;
pub use graph::Graph;
pub use ids::{LinkId, NodeId};
pub use path::Path;
