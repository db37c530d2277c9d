//! # stem-core — the spatio-temporal event model
//!
//! Rust implementation of the event model of Tan, Vuran & Goddard,
//! *"Spatio-Temporal Event Model for Cyber-Physical Systems"* (ICDCS
//! Workshops 2009), Secs. 4–5:
//!
//! * **Events** ([`Event`], Def. 4.1): `E_id {t^o, l^o, V}` with the 2×2
//!   classification punctual/interval × point/field ([`EventClass`]).
//! * **Event conditions** ([`ConditionExpr`], Def. 4.2): attribute-based
//!   (Eq. 4.2), temporal (Eq. 4.3), spatial (Eq. 4.4) conditions composed
//!   with AND/OR/NOT (Eq. 4.5), plus the distance and confidence forms the
//!   paper's examples use. A textual [`dsl`] parses and pretty-prints them.
//! * **Observers** ([`ConditionObserver`], Def. 4.3) evaluate
//!   [`EventDefinition`]s over [`Bindings`] and generate…
//! * **Event instances** ([`EventInstance`], Def. 4.4):
//!   `E(OB_id, E_id, i)` with the 6-tuple `{t^g, l^g, t^eo, l^eo, V, ρ}`.
//! * **The five layers** (Sec. 5, Fig. 2): [`PhysicalEvent`],
//!   [`PhysicalObservation`], [`SensorEvent`], [`CyberPhysicalEvent`],
//!   [`CyberEvent`].
//!
//! # Example: the paper's composite condition S1
//!
//! ```
//! use stem_core::{dsl, Attributes, Bindings, Confidence, EntityData};
//! use stem_spatial::{Point, SpatialExtent};
//! use stem_temporal::{TemporalExtent, TimePoint};
//!
//! let s1 = dsl::parse(
//!     "(time(x) before time(y)) and (dist(loc(x), loc(y)) < 5)",
//! )?;
//! let obs = |t: u64, x: f64| EntityData::new(
//!     TemporalExtent::punctual(TimePoint::new(t)),
//!     SpatialExtent::point(Point::new(x, 0.0)),
//!     Attributes::new(),
//!     Confidence::CERTAIN,
//! );
//! let bindings = Bindings::new()
//!     .with("x", obs(100, 0.0))
//!     .with("y", obs(140, 3.0));
//! assert_eq!(s1.eval(&bindings), Ok(true));
//! # Ok::<(), stem_core::dsl::ParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attr;
pub mod codec;
mod columnar;
mod condition;
mod confidence;
pub mod dsl;
mod event;
mod ids;
mod instance;
mod layers;
mod observer;
mod pump;
pub mod timing;
pub mod trace;

pub use attr::{AttrAggregate, AttrValue, Attributes, RelationalOp};
pub use codec::StateCodec;
pub use columnar::{AttrArena, ColumnarBatch};
pub use condition::{
    AttrRef, AttributeCondition, Bindings, ConditionExpr, ConfidenceCondition, DistanceCondition,
    EntityLookup, EntityName, EntityView, EvalError, SpaceExpr, SpaceOperand, SpatialCondition,
    TemporalCondition, TimeExpr, TimeOperand,
};
pub use confidence::{Confidence, InvalidConfidence};
pub use event::{Event, EventClass, SpatialClass, TemporalClass};
pub use ids::{ActuatorId, CcuId, EventId, MoteId, ObserverId, SensorId, SeqNo};
pub use instance::{EntityData, EventInstance, EventInstanceBuilder};
pub use layers::{
    is_meta_event, physical_event, CyberEvent, CyberPhysicalEvent, Layer, PhysicalEvent,
    PhysicalObservation, SensorEvent, ALL_LAYERS, META_EVENT_PREFIX, META_OBSERVER,
};
pub use observer::{
    AttrProjection, ConditionObserver, ConfidencePolicy, EventDefinition, LocationEstimator,
    TimeEstimator,
};
pub use pump::{InstancePump, InstanceSource, PumpEvent, PumpOutput, TimedInstance};
pub use trace::{Constituent, DropVerdict, Provenance, StageStamps, TraceClock, TraceId};
