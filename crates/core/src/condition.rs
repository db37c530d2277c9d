//! Event conditions (Def. 4.2, Eqs. 4.2–4.5).
//!
//! "Each event is defined as a combination of one or more event conditions,
//! which are constraints in terms of attributes, time, and location" —
//! attribute-based conditions (`g_v[V1..Vn] OP_R C`), temporal conditions
//! (`g_t[t1..tn] OP_T C_t`), spatial conditions (`g_s[l1..ln] OP_S C_s`),
//! composed with the logical operators AND/OR/NOT (Eq. 4.5).

use crate::{AttrAggregate, EntityData, RelationalOp};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use stem_spatial::{SpatialAgg, SpatialExtent, SpatialOperator};
use stem_temporal::{TemporalExtent, TemporalOperator, TimeAgg};

/// What a condition reads from one bound entity: its estimated
/// occurrence time and location, its numeric attributes, and its
/// producer confidence.
///
/// [`EntityData`] is the owned view; the engine implements it over a
/// borrowed columnar row, so conditions evaluate against the row's
/// columns without rebuilding an instance.
pub trait EntityView {
    /// Occurrence time (estimated).
    fn time(&self) -> TemporalExtent;
    /// Occurrence location (estimated).
    fn location(&self) -> &SpatialExtent;
    /// The attribute's numeric view, if the attribute exists and is
    /// numeric.
    fn attr_f64(&self, key: &str) -> Option<f64>;
    /// Producer confidence `ρ`, in `[0, 1]`.
    fn confidence(&self) -> f64;
}

impl EntityView for EntityData {
    fn time(&self) -> TemporalExtent {
        self.time
    }

    fn location(&self) -> &SpatialExtent {
        &self.location
    }

    fn attr_f64(&self, key: &str) -> Option<f64> {
        self.attributes.get_f64(key)
    }

    fn confidence(&self) -> f64 {
        self.confidence.value()
    }
}

/// Resolves the entity names a condition references to entity views.
///
/// [`Bindings`] is the general implementation (a name → entity map).
/// A single-row view that answers every name with the same row is the
/// other: the engine binds every entity of a per-instance condition to
/// the candidate instance.
pub trait EntityLookup {
    /// The entity view type.
    type Entity: EntityView + ?Sized;
    /// The entity bound to `name`, if any.
    fn entity(&self, name: &str) -> Option<&Self::Entity>;
}

impl EntityLookup for Bindings {
    type Entity = EntityData;

    fn entity(&self, name: &str) -> Option<&EntityData> {
        self.get(name)
    }
}

/// Resolves `name` or reports it unbound.
fn bound<'a, L: EntityLookup + ?Sized>(
    entities: &'a L,
    name: &str,
) -> Result<&'a L::Entity, EvalError> {
    entities
        .entity(name)
        .ok_or_else(|| EvalError::UnboundEntity(name.to_owned()))
}

/// A symbolic reference to an entity bound at evaluation time.
///
/// The paper's conditions reference entities like "physical observation x"
/// or "event instance of event y"; in this implementation those names are
/// resolved against a [`Bindings`] map when the condition is evaluated.
pub type EntityName = String;

/// Evaluation-time bindings from entity names to entity views.
///
/// # Example
///
/// ```
/// use stem_core::{Attributes, Bindings, Confidence, EntityData};
/// use stem_spatial::{Point, SpatialExtent};
/// use stem_temporal::{TemporalExtent, TimePoint};
///
/// let mut b = Bindings::new();
/// b.bind("x", EntityData::new(
///     TemporalExtent::punctual(TimePoint::new(5)),
///     SpatialExtent::point(Point::new(0.0, 0.0)),
///     Attributes::new().with("temp", 30.0),
///     Confidence::CERTAIN,
/// ));
/// assert!(b.get("x").is_some());
/// assert!(b.get("y").is_none());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Bindings(BTreeMap<EntityName, EntityData>);

impl Bindings {
    /// Creates an empty binding set.
    #[must_use]
    pub fn new() -> Self {
        Bindings(BTreeMap::new())
    }

    /// Binds `name` to an entity view (replacing any previous binding).
    pub fn bind(&mut self, name: impl Into<EntityName>, data: EntityData) {
        self.0.insert(name.into(), data);
    }

    /// Builder-style binding.
    #[must_use]
    pub fn with(mut self, name: impl Into<EntityName>, data: EntityData) -> Self {
        self.bind(name, data);
        self
    }

    /// Looks up a binding.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&EntityData> {
        self.0.get(name)
    }

    /// Number of bindings.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Returns `true` if no bindings exist.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Iterates over bound entities in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &EntityData)> {
        self.0.iter().map(|(k, v)| (k.as_str(), v))
    }
}

/// Error produced when a condition cannot be evaluated against a binding
/// set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// A referenced entity name has no binding.
    UnboundEntity(EntityName),
    /// A referenced attribute is missing or non-numeric on an entity.
    MissingAttribute {
        /// The entity whose attribute was requested.
        entity: EntityName,
        /// The missing or non-numeric attribute key.
        attribute: String,
    },
    /// An aggregation had no inputs.
    EmptyAggregation,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnboundEntity(name) => write!(f, "entity '{name}' is not bound"),
            EvalError::MissingAttribute { entity, attribute } => {
                write!(
                    f,
                    "entity '{entity}' has no numeric attribute '{attribute}'"
                )
            }
            EvalError::EmptyAggregation => write!(f, "aggregation over zero entities"),
        }
    }
}

impl std::error::Error for EvalError {}

/// A reference to one entity's attribute, e.g. `x.temp`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttrRef {
    /// Entity name.
    pub entity: EntityName,
    /// Attribute key on that entity.
    pub attribute: String,
}

impl AttrRef {
    /// Creates a reference to `entity.attribute`.
    #[must_use]
    pub fn new(entity: impl Into<EntityName>, attribute: impl Into<String>) -> Self {
        AttrRef {
            entity: entity.into(),
            attribute: attribute.into(),
        }
    }
}

impl fmt::Display for AttrRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.entity, self.attribute)
    }
}

/// An attribute-based event condition (Eq. 4.2):
/// `g_v[V1, V2, ..., Vn] OP_R C`.
///
/// # Example
///
/// ```
/// use stem_core::{AttrAggregate, AttrRef, AttributeCondition, RelationalOp};
///
/// // The paper's example: Average(Vx, Vy) > C.
/// let cond = AttributeCondition::new(
///     AttrAggregate::Average,
///     vec![AttrRef::new("x", "val"), AttrRef::new("y", "val")],
///     RelationalOp::Greater,
///     10.0,
/// );
/// assert_eq!(cond.to_string(), "avg(x.val, y.val) > 10");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttributeCondition {
    /// The aggregation function `g_v`.
    pub aggregate: AttrAggregate,
    /// The attribute references fed to the aggregate.
    pub inputs: Vec<AttrRef>,
    /// The relational operator `OP_R`.
    pub op: RelationalOp,
    /// The numeric constant `C`.
    pub constant: f64,
}

impl AttributeCondition {
    /// Creates an attribute condition.
    #[must_use]
    pub fn new(
        aggregate: AttrAggregate,
        inputs: Vec<AttrRef>,
        op: RelationalOp,
        constant: f64,
    ) -> Self {
        AttributeCondition {
            aggregate,
            inputs,
            op,
            constant,
        }
    }

    /// Evaluates the condition against `bindings`.
    ///
    /// # Errors
    ///
    /// [`EvalError::UnboundEntity`] / [`EvalError::MissingAttribute`] when
    /// references cannot be resolved; [`EvalError::EmptyAggregation`] when
    /// the aggregate has no inputs.
    pub fn eval<L: EntityLookup + ?Sized>(&self, bindings: &L) -> Result<bool, EvalError> {
        // The aggregate folds the resolved values as they stream past;
        // the first unresolvable reference ends the stream and wins.
        let mut error = None;
        let values = self.inputs.iter().map_while(|r| {
            let resolved = bound(bindings, &r.entity).and_then(|entity| {
                entity
                    .attr_f64(&r.attribute)
                    .ok_or_else(|| EvalError::MissingAttribute {
                        entity: r.entity.clone(),
                        attribute: r.attribute.clone(),
                    })
            });
            resolved.map_err(|e| error = Some(e)).ok()
        });
        let agg = self.aggregate.fold(values);
        if let Some(e) = error {
            return Err(e);
        }
        let agg = agg.ok_or(EvalError::EmptyAggregation)?;
        Ok(self.op.eval(agg, self.constant))
    }
}

impl fmt::Display for AttributeCondition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.aggregate)?;
        for (i, r) in self.inputs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, ") {} {}", self.op, self.constant)
    }
}

/// A time expression: an aggregate over entity occurrence times, with an
/// optional signed tick offset (supporting "`t_x + 5 Before t_y`").
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimeExpr {
    /// The aggregation function `g_t`.
    pub aggregate: TimeAgg,
    /// The entities whose occurrence times feed the aggregate.
    pub entities: Vec<EntityName>,
    /// Signed tick offset added to the aggregated extent.
    pub offset: i64,
}

impl TimeExpr {
    /// The time of a single entity (`time(x)`).
    #[must_use]
    pub fn of(entity: impl Into<EntityName>) -> Self {
        TimeExpr {
            aggregate: TimeAgg::Identity,
            entities: vec![entity.into()],
            offset: 0,
        }
    }

    /// An aggregate over several entities.
    #[must_use]
    pub fn agg(aggregate: TimeAgg, entities: Vec<EntityName>) -> Self {
        TimeExpr {
            aggregate,
            entities,
            offset: 0,
        }
    }

    /// Adds a signed offset (ticks) to the expression.
    #[must_use]
    pub fn offset(mut self, delta: i64) -> Self {
        self.offset = delta;
        self
    }

    fn resolve<L: EntityLookup + ?Sized>(&self, bindings: &L) -> Result<TemporalExtent, EvalError> {
        let mut times = Vec::with_capacity(self.entities.len());
        for name in &self.entities {
            times.push(bound(bindings, name)?.time());
        }
        let agg = self
            .aggregate
            .apply(&times)
            .ok_or(EvalError::EmptyAggregation)?;
        Ok(agg.saturating_offset(self.offset))
    }
}

impl fmt::Display for TimeExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.aggregate)?;
        for (i, e) in self.entities.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, ")")?;
        match self.offset.cmp(&0) {
            std::cmp::Ordering::Greater => write!(f, " + {}", self.offset),
            std::cmp::Ordering::Less => write!(f, " - {}", -self.offset),
            std::cmp::Ordering::Equal => Ok(()),
        }
    }
}

/// The right-hand side of a temporal condition: another time expression or
/// a time constant `C_t` ("either a point-based or an interval-based
/// time", Eq. 4.3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TimeOperand {
    /// Compare against another expression over bound entities.
    Expr(TimeExpr),
    /// Compare against a constant extent.
    Constant(TemporalExtent),
}

impl fmt::Display for TimeOperand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimeOperand::Expr(e) => write!(f, "{e}"),
            TimeOperand::Constant(TemporalExtent::Punctual(t)) => {
                write!(f, "at({})", t.ticks())
            }
            TimeOperand::Constant(TemporalExtent::Interval(iv)) => {
                write!(f, "span({}, {})", iv.start().ticks(), iv.end().ticks())
            }
        }
    }
}

/// A temporal event condition (Eq. 4.3): `g_t[t1..tn] OP_T C_t`.
///
/// # Example
///
/// ```
/// use stem_core::{TemporalCondition, TimeExpr, TimeOperand};
/// use stem_temporal::TemporalOperator;
///
/// // The paper's example: "t_x + 5 Before t_y".
/// let cond = TemporalCondition::new(
///     TimeExpr::of("x").offset(5),
///     TemporalOperator::Before,
///     TimeOperand::Expr(TimeExpr::of("y")),
/// );
/// assert_eq!(cond.to_string(), "time(x) + 5 before time(y)");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TemporalCondition {
    /// The left-hand time expression.
    pub lhs: TimeExpr,
    /// The temporal operator `OP_T`.
    pub op: TemporalOperator,
    /// The right-hand operand.
    pub rhs: TimeOperand,
}

impl TemporalCondition {
    /// Creates a temporal condition.
    #[must_use]
    pub fn new(lhs: TimeExpr, op: TemporalOperator, rhs: TimeOperand) -> Self {
        TemporalCondition { lhs, op, rhs }
    }

    /// Evaluates the condition against `bindings`.
    ///
    /// # Errors
    ///
    /// See [`AttributeCondition::eval`].
    pub fn eval<L: EntityLookup + ?Sized>(&self, bindings: &L) -> Result<bool, EvalError> {
        let lhs = self.lhs.resolve(bindings)?;
        let rhs = match &self.rhs {
            TimeOperand::Expr(e) => e.resolve(bindings)?,
            TimeOperand::Constant(c) => *c,
        };
        Ok(self.op.eval(&lhs, &rhs))
    }
}

impl fmt::Display for TemporalCondition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.lhs, self.op, self.rhs)
    }
}

/// A space expression: an aggregate over entity occurrence locations.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpaceExpr {
    /// The aggregation function `g_s`.
    pub aggregate: SpatialAgg,
    /// The entities whose occurrence locations feed the aggregate.
    pub entities: Vec<EntityName>,
}

impl SpaceExpr {
    /// The location of a single entity (`loc(x)`).
    #[must_use]
    pub fn of(entity: impl Into<EntityName>) -> Self {
        SpaceExpr {
            aggregate: SpatialAgg::Identity,
            entities: vec![entity.into()],
        }
    }

    /// An aggregate over several entities.
    #[must_use]
    pub fn agg(aggregate: SpatialAgg, entities: Vec<EntityName>) -> Self {
        SpaceExpr {
            aggregate,
            entities,
        }
    }

    fn resolve<L: EntityLookup + ?Sized>(&self, bindings: &L) -> Result<SpatialExtent, EvalError> {
        let mut locs = Vec::with_capacity(self.entities.len());
        for name in &self.entities {
            locs.push(bound(bindings, name)?.location().clone());
        }
        self.aggregate
            .apply(&locs)
            .ok_or(EvalError::EmptyAggregation)
    }
}

impl fmt::Display for SpaceExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // `loc` doubles as Identity's DSL name.
        write!(f, "{}(", self.aggregate)?;
        for (i, e) in self.entities.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, ")")
    }
}

/// The right-hand side of a spatial condition: another space expression or
/// a location constant `C_s` ("either a point or a field", Eq. 4.4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SpaceOperand {
    /// Compare against another expression over bound entities.
    Expr(SpaceExpr),
    /// Compare against a constant extent.
    Constant(SpatialExtent),
}

impl fmt::Display for SpaceOperand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpaceOperand::Expr(e) => write!(f, "{e}"),
            SpaceOperand::Constant(c) => write!(f, "{}", format_spatial_constant(c)),
        }
    }
}

/// Formats a spatial constant in DSL syntax.
fn format_spatial_constant(c: &SpatialExtent) -> String {
    use stem_spatial::Field;
    match c {
        SpatialExtent::Point(p) => format!("point({}, {})", p.x, p.y),
        SpatialExtent::Field(Field::Circle(circle)) => format!(
            "circle({}, {}, {})",
            circle.center().x,
            circle.center().y,
            circle.radius()
        ),
        SpatialExtent::Field(Field::Rect(r)) => format!(
            "rect({}, {}, {}, {})",
            r.min().x,
            r.min().y,
            r.max().x,
            r.max().y
        ),
        SpatialExtent::Field(Field::Polygon(p)) => {
            let pts: Vec<String> = p
                .vertices()
                .iter()
                .map(|v| format!("{}, {}", v.x, v.y))
                .collect();
            format!("poly({})", pts.join(", "))
        }
    }
}

/// A spatial event condition (Eq. 4.4): `g_s[l1..ln] OP_S C_s`.
///
/// # Example
///
/// ```
/// use stem_core::{SpaceExpr, SpaceOperand, SpatialCondition};
/// use stem_spatial::{Circle, Field, Point, SpatialExtent, SpatialOperator};
///
/// // "every event instance of event x must occur Inside event y".
/// let cond = SpatialCondition::new(
///     SpaceExpr::of("x"),
///     SpatialOperator::Inside,
///     SpaceOperand::Expr(SpaceExpr::of("y")),
/// );
/// assert_eq!(cond.to_string(), "loc(x) inside loc(y)");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpatialCondition {
    /// The left-hand space expression.
    pub lhs: SpaceExpr,
    /// The spatial operator `OP_S`.
    pub op: SpatialOperator,
    /// The right-hand operand.
    pub rhs: SpaceOperand,
}

impl SpatialCondition {
    /// Creates a spatial condition.
    #[must_use]
    pub fn new(lhs: SpaceExpr, op: SpatialOperator, rhs: SpaceOperand) -> Self {
        SpatialCondition { lhs, op, rhs }
    }

    /// Evaluates the condition against `bindings`.
    ///
    /// # Errors
    ///
    /// See [`AttributeCondition::eval`].
    pub fn eval<L: EntityLookup + ?Sized>(&self, bindings: &L) -> Result<bool, EvalError> {
        let lhs = self.lhs.resolve(bindings)?;
        let rhs = match &self.rhs {
            SpaceOperand::Expr(e) => e.resolve(bindings)?,
            SpaceOperand::Constant(c) => c.clone(),
        };
        Ok(self.op.eval(&lhs, &rhs))
    }
}

impl fmt::Display for SpatialCondition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.lhs, self.op, self.rhs)
    }
}

/// A distance condition: `dist(g_s[..], g_s[..]) OP_R C` — the paper's
/// `g_distance(l_x, l_y) < 5` (condition S1, Sec. 4.1).
///
/// Distance between extents is the minimum Euclidean separation (zero on
/// contact), so the condition generalizes naturally to fields.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DistanceCondition {
    /// First location expression.
    pub a: SpaceExpr,
    /// Second location expression.
    pub b: SpaceExpr,
    /// The relational operator applied to the distance.
    pub op: RelationalOp,
    /// The distance constant.
    pub constant: f64,
}

impl DistanceCondition {
    /// Creates a distance condition.
    #[must_use]
    pub fn new(a: SpaceExpr, b: SpaceExpr, op: RelationalOp, constant: f64) -> Self {
        DistanceCondition { a, b, op, constant }
    }

    /// Evaluates the condition against `bindings`.
    ///
    /// # Errors
    ///
    /// See [`AttributeCondition::eval`].
    pub fn eval<L: EntityLookup + ?Sized>(&self, bindings: &L) -> Result<bool, EvalError> {
        let a = self.a.resolve(bindings)?;
        let b = self.b.resolve(bindings)?;
        Ok(self.op.eval(a.distance(&b), self.constant))
    }
}

impl fmt::Display for DistanceCondition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dist({}, {}) {} {}",
            self.a, self.b, self.op, self.constant
        )
    }
}

/// A confidence condition: `conf(x) OP_R C` — thresholds an entity's
/// producing-observer confidence `ρ`. Not in the paper's Eq. 4.5 but
/// required by its Def. 4.4 workflow (observers weigh inputs by ρ).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfidenceCondition {
    /// The entity whose confidence is tested.
    pub entity: EntityName,
    /// The relational operator.
    pub op: RelationalOp,
    /// The confidence constant in `[0, 1]`.
    pub constant: f64,
}

impl ConfidenceCondition {
    /// Creates a confidence condition.
    #[must_use]
    pub fn new(entity: impl Into<EntityName>, op: RelationalOp, constant: f64) -> Self {
        ConfidenceCondition {
            entity: entity.into(),
            op,
            constant,
        }
    }

    /// Evaluates the condition against `bindings`.
    ///
    /// # Errors
    ///
    /// [`EvalError::UnboundEntity`] when the entity is not bound.
    pub fn eval<L: EntityLookup + ?Sized>(&self, bindings: &L) -> Result<bool, EvalError> {
        let entity = bound(bindings, &self.entity)?;
        Ok(self.op.eval(entity.confidence(), self.constant))
    }
}

impl fmt::Display for ConfidenceCondition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "conf({}) {} {}", self.entity, self.op, self.constant)
    }
}

/// A composite event condition (Eq. 4.5): attribute, temporal, and spatial
/// conditions combined with the logical operators `AND, OR, NOT`.
///
/// # Example — the paper's condition S1 (Sec. 4.1)
///
/// "every instance of physical observation x occurs before physical
/// observation y and the distance between location of x and the location
/// of y is less than 5 meters":
///
/// ```
/// use stem_core::{
///     Bindings, ConditionExpr, DistanceCondition, EntityData, RelationalOp,
///     SpaceExpr, TemporalCondition, TimeExpr, TimeOperand, Attributes, Confidence,
/// };
/// use stem_spatial::{Point, SpatialExtent};
/// use stem_temporal::{TemporalExtent, TemporalOperator, TimePoint};
///
/// let s1 = ConditionExpr::and(vec![
///     ConditionExpr::temporal(TemporalCondition::new(
///         TimeExpr::of("x"),
///         TemporalOperator::Before,
///         TimeOperand::Expr(TimeExpr::of("y")),
///     )),
///     ConditionExpr::distance(DistanceCondition::new(
///         SpaceExpr::of("x"),
///         SpaceExpr::of("y"),
///         RelationalOp::Less,
///         5.0,
///     )),
/// ]);
///
/// let entity = |t: u64, x: f64| EntityData::new(
///     TemporalExtent::punctual(TimePoint::new(t)),
///     SpatialExtent::point(Point::new(x, 0.0)),
///     Attributes::new(),
///     Confidence::CERTAIN,
/// );
/// let bindings = Bindings::new()
///     .with("x", entity(10, 0.0))
///     .with("y", entity(20, 3.0));
/// assert_eq!(s1.eval(&bindings), Ok(true));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ConditionExpr {
    /// Conjunction of sub-conditions (true when all hold; empty = true).
    And(Vec<ConditionExpr>),
    /// Disjunction of sub-conditions (true when any holds; empty = false).
    Or(Vec<ConditionExpr>),
    /// Negation.
    Not(Box<ConditionExpr>),
    /// Attribute-based leaf (Eq. 4.2).
    Attr(AttributeCondition),
    /// Temporal leaf (Eq. 4.3).
    Temporal(TemporalCondition),
    /// Spatial leaf (Eq. 4.4).
    Spatial(SpatialCondition),
    /// Distance leaf (the paper's `g_distance` example).
    Distance(DistanceCondition),
    /// Confidence leaf.
    Confidence(ConfidenceCondition),
}

impl ConditionExpr {
    /// Conjunction constructor.
    #[must_use]
    pub fn and(subs: Vec<ConditionExpr>) -> Self {
        ConditionExpr::And(subs)
    }

    /// Disjunction constructor.
    #[must_use]
    pub fn or(subs: Vec<ConditionExpr>) -> Self {
        ConditionExpr::Or(subs)
    }

    /// Negation constructor (named after the DSL keyword; this is a
    /// static constructor, not `std::ops::Not`).
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn not(sub: ConditionExpr) -> Self {
        ConditionExpr::Not(Box::new(sub))
    }

    /// Attribute leaf constructor.
    #[must_use]
    pub fn attr(c: AttributeCondition) -> Self {
        ConditionExpr::Attr(c)
    }

    /// Temporal leaf constructor.
    #[must_use]
    pub fn temporal(c: TemporalCondition) -> Self {
        ConditionExpr::Temporal(c)
    }

    /// Spatial leaf constructor.
    #[must_use]
    pub fn spatial(c: SpatialCondition) -> Self {
        ConditionExpr::Spatial(c)
    }

    /// Distance leaf constructor.
    #[must_use]
    pub fn distance(c: DistanceCondition) -> Self {
        ConditionExpr::Distance(c)
    }

    /// Confidence leaf constructor.
    #[must_use]
    pub fn confidence(c: ConfidenceCondition) -> Self {
        ConditionExpr::Confidence(c)
    }

    /// Evaluates the composite condition against `bindings` (a
    /// [`Bindings`] map, or any other [`EntityLookup`]).
    ///
    /// `And`/`Or` short-circuit *after* checking that every sub-condition
    /// that gets evaluated resolves; an evaluation error anywhere in the
    /// evaluated prefix propagates.
    ///
    /// # Errors
    ///
    /// Propagates the first [`EvalError`] encountered.
    pub fn eval<L: EntityLookup + ?Sized>(&self, bindings: &L) -> Result<bool, EvalError> {
        match self {
            ConditionExpr::And(subs) => {
                for s in subs {
                    if !s.eval(bindings)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            ConditionExpr::Or(subs) => {
                for s in subs {
                    if s.eval(bindings)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            ConditionExpr::Not(sub) => Ok(!sub.eval(bindings)?),
            ConditionExpr::Attr(c) => c.eval(bindings),
            ConditionExpr::Temporal(c) => c.eval(bindings),
            ConditionExpr::Spatial(c) => c.eval(bindings),
            ConditionExpr::Distance(c) => c.eval(bindings),
            ConditionExpr::Confidence(c) => c.eval(bindings),
        }
    }

    /// The distinct entity names referenced by the condition, sorted.
    ///
    /// These are the entities an observer must collect before it can
    /// evaluate the condition — the basis for CEP operator compilation.
    #[must_use]
    pub fn entity_names(&self) -> Vec<EntityName> {
        let mut names = Vec::new();
        self.collect_entities(&mut names);
        names.sort();
        names.dedup();
        names
    }

    fn collect_entities(&self, out: &mut Vec<EntityName>) {
        match self {
            ConditionExpr::And(subs) | ConditionExpr::Or(subs) => {
                for s in subs {
                    s.collect_entities(out);
                }
            }
            ConditionExpr::Not(sub) => sub.collect_entities(out),
            ConditionExpr::Attr(c) => {
                out.extend(c.inputs.iter().map(|r| r.entity.clone()));
            }
            ConditionExpr::Temporal(c) => {
                out.extend(c.lhs.entities.iter().cloned());
                if let TimeOperand::Expr(e) = &c.rhs {
                    out.extend(e.entities.iter().cloned());
                }
            }
            ConditionExpr::Spatial(c) => {
                out.extend(c.lhs.entities.iter().cloned());
                if let SpaceOperand::Expr(e) = &c.rhs {
                    out.extend(e.entities.iter().cloned());
                }
            }
            ConditionExpr::Distance(c) => {
                out.extend(c.a.entities.iter().cloned());
                out.extend(c.b.entities.iter().cloned());
            }
            ConditionExpr::Confidence(c) => out.push(c.entity.clone()),
        }
    }

    /// Number of leaf conditions in the expression tree.
    #[must_use]
    pub fn leaf_count(&self) -> usize {
        match self {
            ConditionExpr::And(subs) | ConditionExpr::Or(subs) => {
                subs.iter().map(ConditionExpr::leaf_count).sum()
            }
            ConditionExpr::Not(sub) => sub.leaf_count(),
            _ => 1,
        }
    }
}

impl fmt::Display for ConditionExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConditionExpr::And(subs) => {
                if subs.is_empty() {
                    return f.write_str("true");
                }
                for (i, s) in subs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" and ")?;
                    }
                    write!(f, "({s})")?;
                }
                Ok(())
            }
            ConditionExpr::Or(subs) => {
                if subs.is_empty() {
                    return f.write_str("false");
                }
                for (i, s) in subs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" or ")?;
                    }
                    write!(f, "({s})")?;
                }
                Ok(())
            }
            ConditionExpr::Not(sub) => write!(f, "not ({sub})"),
            ConditionExpr::Attr(c) => write!(f, "{c}"),
            ConditionExpr::Temporal(c) => write!(f, "{c}"),
            ConditionExpr::Spatial(c) => write!(f, "{c}"),
            ConditionExpr::Distance(c) => write!(f, "{c}"),
            ConditionExpr::Confidence(c) => write!(f, "{c}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Attributes, Confidence};
    use stem_spatial::{Circle, Field, Point};
    use stem_temporal::TimePoint;

    fn entity(t: u64, x: f64, y: f64, val: f64, conf: f64) -> EntityData {
        EntityData::new(
            TemporalExtent::punctual(TimePoint::new(t)),
            SpatialExtent::point(Point::new(x, y)),
            Attributes::new().with("val", val),
            Confidence::new(conf).unwrap(),
        )
    }

    fn bindings() -> Bindings {
        Bindings::new()
            .with("x", entity(10, 0.0, 0.0, 30.0, 0.9))
            .with("y", entity(20, 3.0, 4.0, 10.0, 0.8))
    }

    #[test]
    fn attribute_condition_average_example() {
        // Average(Vx, Vy) > C with Vx=30, Vy=10 → avg=20.
        let c = AttributeCondition::new(
            AttrAggregate::Average,
            vec![AttrRef::new("x", "val"), AttrRef::new("y", "val")],
            RelationalOp::Greater,
            15.0,
        );
        assert_eq!(c.eval(&bindings()), Ok(true));
        let c2 = AttributeCondition {
            constant: 25.0,
            ..c
        };
        assert_eq!(c2.eval(&bindings()), Ok(false));
    }

    #[test]
    fn attribute_condition_errors() {
        let c = AttributeCondition::new(
            AttrAggregate::Max,
            vec![AttrRef::new("z", "val")],
            RelationalOp::Greater,
            0.0,
        );
        assert_eq!(
            c.eval(&bindings()),
            Err(EvalError::UnboundEntity("z".into()))
        );
        let c = AttributeCondition::new(
            AttrAggregate::Max,
            vec![AttrRef::new("x", "missing")],
            RelationalOp::Greater,
            0.0,
        );
        assert!(matches!(
            c.eval(&bindings()),
            Err(EvalError::MissingAttribute { .. })
        ));
        let c = AttributeCondition::new(AttrAggregate::Max, vec![], RelationalOp::Greater, 0.0);
        assert_eq!(c.eval(&bindings()), Err(EvalError::EmptyAggregation));
    }

    #[test]
    fn temporal_condition_with_offset() {
        // t_x + 5 before t_y: 10+5=15 < 20 → true.
        let c = TemporalCondition::new(
            TimeExpr::of("x").offset(5),
            TemporalOperator::Before,
            TimeOperand::Expr(TimeExpr::of("y")),
        );
        assert_eq!(c.eval(&bindings()), Ok(true));
        // t_x + 15 before t_y: 25 > 20 → false.
        let c = TemporalCondition::new(
            TimeExpr::of("x").offset(15),
            TemporalOperator::Before,
            TimeOperand::Expr(TimeExpr::of("y")),
        );
        assert_eq!(c.eval(&bindings()), Ok(false));
    }

    #[test]
    fn temporal_condition_against_constant() {
        let c = TemporalCondition::new(
            TimeExpr::of("x"),
            TemporalOperator::Before,
            TimeOperand::Constant(TemporalExtent::punctual(TimePoint::new(100))),
        );
        assert_eq!(c.eval(&bindings()), Ok(true));
    }

    #[test]
    fn spatial_condition_inside_constant_field() {
        let c = SpatialCondition::new(
            SpaceExpr::of("x"),
            SpatialOperator::Inside,
            SpaceOperand::Constant(SpatialExtent::field(Field::circle(Circle::new(
                Point::new(0.0, 0.0),
                1.0,
            )))),
        );
        assert_eq!(c.eval(&bindings()), Ok(true));
        let c_far = SpatialCondition::new(
            SpaceExpr::of("y"),
            SpatialOperator::Inside,
            SpaceOperand::Constant(SpatialExtent::field(Field::circle(Circle::new(
                Point::new(0.0, 0.0),
                1.0,
            )))),
        );
        assert_eq!(c_far.eval(&bindings()), Ok(false));
    }

    #[test]
    fn distance_condition_paper_example() {
        // dist((0,0),(3,4)) = 5; "less than 5" is false, "<= 5" is true.
        let lt = DistanceCondition::new(
            SpaceExpr::of("x"),
            SpaceExpr::of("y"),
            RelationalOp::Less,
            5.0,
        );
        assert_eq!(lt.eval(&bindings()), Ok(false));
        let le = DistanceCondition::new(
            SpaceExpr::of("x"),
            SpaceExpr::of("y"),
            RelationalOp::LessEq,
            5.0,
        );
        assert_eq!(le.eval(&bindings()), Ok(true));
    }

    #[test]
    fn confidence_condition() {
        let c = ConfidenceCondition::new("x", RelationalOp::GreaterEq, 0.85);
        assert_eq!(c.eval(&bindings()), Ok(true));
        let c = ConfidenceCondition::new("y", RelationalOp::GreaterEq, 0.85);
        assert_eq!(c.eval(&bindings()), Ok(false));
    }

    #[test]
    fn logical_composition_and_or_not() {
        let t =
            ConditionExpr::confidence(ConfidenceCondition::new("x", RelationalOp::Greater, 0.0));
        let f =
            ConditionExpr::confidence(ConfidenceCondition::new("x", RelationalOp::Greater, 1.0));
        assert_eq!(
            ConditionExpr::and(vec![t.clone(), t.clone()]).eval(&bindings()),
            Ok(true)
        );
        assert_eq!(
            ConditionExpr::and(vec![t.clone(), f.clone()]).eval(&bindings()),
            Ok(false)
        );
        assert_eq!(
            ConditionExpr::or(vec![f.clone(), t.clone()]).eval(&bindings()),
            Ok(true)
        );
        assert_eq!(
            ConditionExpr::or(vec![f.clone(), f.clone()]).eval(&bindings()),
            Ok(false)
        );
        assert_eq!(ConditionExpr::not(f).eval(&bindings()), Ok(true));
        // Empty And is vacuously true; empty Or is false.
        assert_eq!(ConditionExpr::and(vec![]).eval(&bindings()), Ok(true));
        assert_eq!(ConditionExpr::or(vec![]).eval(&bindings()), Ok(false));
    }

    #[test]
    fn and_short_circuits_before_errors() {
        let f =
            ConditionExpr::confidence(ConfidenceCondition::new("x", RelationalOp::Greater, 1.0));
        let err = ConditionExpr::confidence(ConfidenceCondition::new(
            "unbound",
            RelationalOp::Greater,
            0.0,
        ));
        // False before the error: short-circuit hides it.
        assert_eq!(
            ConditionExpr::and(vec![f, err.clone()]).eval(&bindings()),
            Ok(false)
        );
        // Error first: propagates.
        assert!(ConditionExpr::and(vec![err, ConditionExpr::and(vec![])])
            .eval(&bindings())
            .is_err());
    }

    #[test]
    fn entity_names_are_sorted_and_deduped() {
        let expr = ConditionExpr::and(vec![
            ConditionExpr::temporal(TemporalCondition::new(
                TimeExpr::of("y"),
                TemporalOperator::After,
                TimeOperand::Expr(TimeExpr::of("x")),
            )),
            ConditionExpr::distance(DistanceCondition::new(
                SpaceExpr::of("x"),
                SpaceExpr::of("y"),
                RelationalOp::Less,
                5.0,
            )),
        ]);
        assert_eq!(expr.entity_names(), vec!["x".to_string(), "y".to_string()]);
        assert_eq!(expr.leaf_count(), 2);
    }

    #[test]
    fn display_of_nested_expression() {
        let expr = ConditionExpr::not(ConditionExpr::or(vec![
            ConditionExpr::confidence(ConfidenceCondition::new("x", RelationalOp::Less, 0.5)),
            ConditionExpr::confidence(ConfidenceCondition::new("y", RelationalOp::Less, 0.5)),
        ]));
        assert_eq!(expr.to_string(), "not ((conf(x) < 0.5) or (conf(y) < 0.5))");
    }
}
