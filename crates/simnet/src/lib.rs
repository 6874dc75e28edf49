#![warn(missing_docs)]

//! # avdb-simnet
//!
//! Message-passing substrate for the avdb reproduction.
//!
//! The paper evaluates its mechanism by *counting correspondences*
//! (2 messages = 1 correspondence) in a simulated three-site system. This
//! crate provides that substrate twice over the same actor abstraction:
//!
//! * [`Simulator`] — a deterministic discrete-event simulator: virtual
//!   clock, FIFO links with configurable latency, seeded jitter, and a
//!   fault plan (crashes, recoveries, partitions, message drops). Same
//!   seed + same inputs ⇒ bit-identical runs, which the experiment harness
//!   relies on.
//! * [`TcpMesh`] — the live runtime: the *same* [`Actor`] code on one OS
//!   thread per site, connected by loopback TCP sockets, for running the
//!   protocols under real concurrency. A harness settles it with
//!   [`Live::quiesce`], which returns once nothing is in flight.
//!
//! Every message sent is recorded in [`Counters`]; the protocol layer on
//! top guarantees each exchange is a request/reply pair so
//! `correspondences == messages / 2` exactly (paper's accounting).

pub mod actor;
pub mod counters;
pub mod event;
pub mod faults;
pub mod hook;
pub mod inspect;
pub mod live;
pub mod rng;
pub mod runner;
pub mod tcp;
pub mod trace;
pub mod transport;

pub use actor::{Actor, Ctx, MsgInfo};
pub use inspect::Introspect;
pub use live::Live;
pub use avdb_telemetry::{MessageEvent, MessageLog, Registry, RegistrySnapshot, TraceContext};
pub use counters::{Counters, CountersSnapshot};
pub use event::{Event, EventQueue};
pub use faults::{FaultPlan, FlapSchedule, LinkFilter};
pub use hook::{FaultCtl, NetEvent, NetHook};
pub use rng::DetRng;
pub use runner::{Simulator, SimulatorBuilder};
pub use tcp::TcpMesh;
pub use trace::{render_sequence, Trace, TraceEvent};
