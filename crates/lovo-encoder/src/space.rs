//! The shared attribute-grounded embedding space.
//!
//! Every semantic facet value (class "bus", colour "red", activity "dancing",
//! …) owns a deterministic pseudo-random unit direction in the `D'`-dimensional
//! class-embedding space. An object's embedding is a weighted sum of the
//! directions of its attributes; a query's embedding is a weighted sum of the
//! directions of its constraints. Because both modalities use the *same*
//! directions, dot-product similarity is high exactly when attributes match —
//! this is the stand-in for CLIP-style vision–language pre-training (see the
//! crate-level documentation and DESIGN.md for the argument).
//!
//! Two deliberate imperfections keep the retrieval problem realistic:
//!
//! * visually similar colours (white/light, black/dark, green/yellow-green)
//!   share a common direction component, so near-miss colours partially match;
//! * facet weights differ between the fast-search view (class, colour and
//!   location dominate; relations and accessories are dropped, §VI-A) and the
//!   fine-grained view used by the rerank transformer (everything included).

use lovo_tensor::init::rng_for;
use lovo_tensor::ops::l2_normalize;
use lovo_video::object::{Accessory, Activity, Color, Gender, Location, Relation, SizeClass};
use lovo_video::query::QueryConstraints;
use lovo_video::{ObjectAttributes, ObjectClass};
use rand::Rng;

/// The semantic facets that own directions in the space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttributeFacet {
    /// Object class.
    Class,
    /// Colour.
    Color,
    /// Shared component between visually similar colours.
    ColorFamily,
    /// Size.
    Size,
    /// Activity.
    Activity,
    /// Location.
    Location,
    /// Relation kind (none / side-by-side / next-to).
    RelationKind,
    /// Relation peer class.
    RelationPeer,
    /// Accessory.
    Accessory,
    /// Gender presentation.
    Gender,
}

impl AttributeFacet {
    fn label(&self) -> &'static str {
        match self {
            AttributeFacet::Class => "class",
            AttributeFacet::Color => "color",
            AttributeFacet::ColorFamily => "color_family",
            AttributeFacet::Size => "size",
            AttributeFacet::Activity => "activity",
            AttributeFacet::Location => "location",
            AttributeFacet::RelationKind => "relation_kind",
            AttributeFacet::RelationPeer => "relation_peer",
            AttributeFacet::Accessory => "accessory",
            AttributeFacet::Gender => "gender",
        }
    }
}

/// The identity of one fine-grained token: which vector of the space it is.
/// Equal keys always yield bit-identical vectors
/// ([`AttributeSpace::fine_token_vector`]), so work that depends only on a
/// token can run once per distinct key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum FineToken {
    /// The plain direction of `(facet, code)`.
    Facet(AttributeFacet, usize),
    /// A colour, whose vector blends its own and its family's direction
    /// ([`AttributeSpace::color_direction`]).
    Color(Color),
}

/// The facet values a fine token list is built from: every field of an
/// object's attributes, or the fields a query constrains.
struct FacetValues<'a> {
    class: Option<ObjectClass>,
    color: Option<Color>,
    size: Option<SizeClass>,
    activity: Option<Activity>,
    location: Option<Location>,
    gender: Option<Gender>,
    relation: Option<Relation>,
    accessories: &'a [Accessory],
}

impl FacetValues<'_> {
    /// Appends one token per present facet value. This is the single place
    /// that decides which facets become fine tokens, and in which order.
    fn push_tokens(&self, out: &mut Vec<FineToken>) {
        use AttributeFacet as F;
        out.extend(self.class.map(|c| FineToken::Facet(F::Class, c.code())));
        out.extend(self.color.map(FineToken::Color));
        out.extend(self.size.map(|s| FineToken::Facet(F::Size, s.code())));
        out.extend(
            self.activity
                .map(|a| FineToken::Facet(F::Activity, a.code())),
        );
        out.extend(
            self.location
                .map(|l| FineToken::Facet(F::Location, l.code())),
        );
        if let Some(gender) = self.gender.filter(|g| g.code() != 0) {
            out.push(FineToken::Facet(F::Gender, gender.code()));
        }
        if let Some(relation) = self.relation.filter(|r| r.kind_code() != 0) {
            out.push(FineToken::Facet(F::RelationKind, relation.kind_code()));
            if let Some(peer) = relation.peer() {
                out.push(FineToken::Facet(F::RelationPeer, peer.code()));
            }
        }
        out.extend(
            self.accessories
                .iter()
                .map(|a| FineToken::Facet(F::Accessory, a.code())),
        );
    }
}

/// Relative weight of each facet in the coarse (fast-search) view of an
/// embedding. Relations and accessories are intentionally absent: the fast
/// search "omits fine-grained positional information and cross-word
/// dependencies" (§VI-A).
const COARSE_WEIGHTS: &[(AttributeFacet, f32)] = &[
    (AttributeFacet::Class, 1.0),
    (AttributeFacet::Color, 0.65),
    (AttributeFacet::ColorFamily, 0.25),
    (AttributeFacet::Location, 0.45),
    (AttributeFacet::Activity, 0.35),
    (AttributeFacet::Size, 0.2),
    (AttributeFacet::Gender, 0.2),
];

/// Relative weight of each facet in the fine-grained view used by the
/// cross-modality rerank, which fuses every detail of the query with the
/// object's visual information.
const FINE_WEIGHTS: &[(AttributeFacet, f32)] = &[
    (AttributeFacet::Class, 1.0),
    (AttributeFacet::Color, 0.8),
    (AttributeFacet::ColorFamily, 0.2),
    (AttributeFacet::Location, 0.7),
    (AttributeFacet::Activity, 0.7),
    (AttributeFacet::Size, 0.5),
    (AttributeFacet::Gender, 0.5),
    (AttributeFacet::RelationKind, 0.9),
    (AttributeFacet::RelationPeer, 0.6),
    (AttributeFacet::Accessory, 0.9),
];

/// Which facet weighting to use when composing an embedding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetailLevel {
    /// Fast-search view: coarse facets only.
    Coarse,
    /// Rerank view: every facet, fine details included.
    Fine,
}

/// The shared embedding space.
#[derive(Debug, Clone)]
pub struct AttributeSpace {
    dim: usize,
    seed: u64,
}

impl AttributeSpace {
    /// Creates a space of the given dimensionality, deterministically derived
    /// from `seed`.
    pub fn new(dim: usize, seed: u64) -> Self {
        Self { dim, seed }
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The unit direction owned by `(facet, code)`.
    pub fn direction(&self, facet: AttributeFacet, code: usize) -> Vec<f32> {
        let mut rng = rng_for(self.seed, &format!("space.{}.{}", facet.label(), code));
        let mut v: Vec<f32> = (0..self.dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        l2_normalize(&mut v);
        v
    }

    /// The "colour family" code shared by visually similar colours; colours in
    /// the same family partially overlap in embedding space.
    fn color_family_code(color: Color) -> usize {
        match color {
            Color::White | Color::Light | Color::Gray => 0,
            Color::Black | Color::Dark => 1,
            Color::Green | Color::YellowGreen => 2,
            Color::Red => 3,
            Color::Blue => 4,
        }
    }

    /// The direction of a colour: a blend of the colour's own direction and
    /// its family direction, so visually similar colours (white/light,
    /// black/dark, green/yellow-green) overlap substantially while distinct
    /// colours stay nearly orthogonal.
    pub fn color_direction(&self, color: Color) -> Vec<f32> {
        let own = self.direction(AttributeFacet::Color, color.code());
        let family = self.direction(AttributeFacet::ColorFamily, Self::color_family_code(color));
        let mut blended: Vec<f32> = own
            .iter()
            .zip(family.iter())
            .map(|(o, f)| 0.75 * o + 0.65 * f)
            .collect();
        l2_normalize(&mut blended);
        blended
    }

    fn add_scaled(acc: &mut [f32], dir: &[f32], weight: f32) {
        for (a, d) in acc.iter_mut().zip(dir.iter()) {
            *a += weight * d;
        }
    }

    fn weight_for(weights: &[(AttributeFacet, f32)], facet: AttributeFacet) -> f32 {
        weights
            .iter()
            .find(|(f, _)| *f == facet)
            .map(|(_, w)| *w)
            .unwrap_or(0.0)
    }

    /// Embeds ground-truth object attributes at the requested detail level.
    /// The result is L2-normalized.
    pub fn embed_attributes(&self, attrs: &ObjectAttributes, level: DetailLevel) -> Vec<f32> {
        let weights = match level {
            DetailLevel::Coarse => COARSE_WEIGHTS,
            DetailLevel::Fine => FINE_WEIGHTS,
        };
        let mut acc = vec![0.0f32; self.dim];
        let w = |facet| Self::weight_for(weights, facet);

        Self::add_scaled(
            &mut acc,
            &self.direction(AttributeFacet::Class, attrs.class.code()),
            w(AttributeFacet::Class),
        );
        Self::add_scaled(
            &mut acc,
            &self.color_direction(attrs.color),
            w(AttributeFacet::Color) + w(AttributeFacet::ColorFamily),
        );
        Self::add_scaled(
            &mut acc,
            &self.direction(AttributeFacet::Size, attrs.size.code()),
            w(AttributeFacet::Size),
        );
        Self::add_scaled(
            &mut acc,
            &self.direction(AttributeFacet::Activity, attrs.activity.code()),
            w(AttributeFacet::Activity),
        );
        Self::add_scaled(
            &mut acc,
            &self.direction(AttributeFacet::Location, attrs.location.code()),
            w(AttributeFacet::Location),
        );
        if attrs.gender.code() != 0 {
            Self::add_scaled(
                &mut acc,
                &self.direction(AttributeFacet::Gender, attrs.gender.code()),
                w(AttributeFacet::Gender),
            );
        }
        let rel_kind = attrs.relation.kind_code();
        if rel_kind != 0 {
            Self::add_scaled(
                &mut acc,
                &self.direction(AttributeFacet::RelationKind, rel_kind),
                w(AttributeFacet::RelationKind),
            );
            if let Some(peer) = attrs.relation.peer() {
                Self::add_scaled(
                    &mut acc,
                    &self.direction(AttributeFacet::RelationPeer, peer.code()),
                    w(AttributeFacet::RelationPeer),
                );
            }
        }
        for acc_item in &attrs.accessories {
            Self::add_scaled(
                &mut acc,
                &self.direction(AttributeFacet::Accessory, acc_item.code()),
                w(AttributeFacet::Accessory),
            );
        }
        l2_normalize(&mut acc);
        acc
    }

    /// Embeds the constraints of a query at the requested detail level.
    /// The result is L2-normalized. Unconstrained facets contribute nothing.
    pub fn embed_constraints(
        &self,
        constraints: &QueryConstraints,
        level: DetailLevel,
    ) -> Vec<f32> {
        let weights = match level {
            DetailLevel::Coarse => COARSE_WEIGHTS,
            DetailLevel::Fine => FINE_WEIGHTS,
        };
        let mut acc = vec![0.0f32; self.dim];
        let w = |facet| Self::weight_for(weights, facet);

        if let Some(class) = constraints.class {
            Self::add_scaled(
                &mut acc,
                &self.direction(AttributeFacet::Class, class.code()),
                w(AttributeFacet::Class),
            );
        }
        if let Some(color) = constraints.color {
            Self::add_scaled(
                &mut acc,
                &self.color_direction(color),
                w(AttributeFacet::Color) + w(AttributeFacet::ColorFamily),
            );
        }
        if let Some(size) = constraints.size {
            Self::add_scaled(
                &mut acc,
                &self.direction(AttributeFacet::Size, size.code()),
                w(AttributeFacet::Size),
            );
        }
        if let Some(activity) = constraints.activity {
            Self::add_scaled(
                &mut acc,
                &self.direction(AttributeFacet::Activity, activity.code()),
                w(AttributeFacet::Activity),
            );
        }
        if let Some(location) = constraints.location {
            Self::add_scaled(
                &mut acc,
                &self.direction(AttributeFacet::Location, location.code()),
                w(AttributeFacet::Location),
            );
        }
        if let Some(gender) = constraints.gender {
            if gender.code() != 0 {
                Self::add_scaled(
                    &mut acc,
                    &self.direction(AttributeFacet::Gender, gender.code()),
                    w(AttributeFacet::Gender),
                );
            }
        }
        if let Some(relation) = &constraints.relation {
            let kind = relation.kind_code();
            if kind != 0 {
                Self::add_scaled(
                    &mut acc,
                    &self.direction(AttributeFacet::RelationKind, kind),
                    w(AttributeFacet::RelationKind),
                );
                if let Some(peer) = relation.peer() {
                    Self::add_scaled(
                        &mut acc,
                        &self.direction(AttributeFacet::RelationPeer, peer.code()),
                        w(AttributeFacet::RelationPeer),
                    );
                }
            }
        }
        for acc_item in &constraints.accessories {
            Self::add_scaled(
                &mut acc,
                &self.direction(AttributeFacet::Accessory, acc_item.code()),
                w(AttributeFacet::Accessory),
            );
        }
        l2_normalize(&mut acc);
        acc
    }

    /// The vector of one fine token.
    pub(crate) fn fine_token_vector(&self, token: FineToken) -> Vec<f32> {
        match token {
            FineToken::Facet(facet, code) => self.direction(facet, code),
            FineToken::Color(color) => self.color_direction(color),
        }
    }

    /// Appends the fine token keys of an object — one per present facet —
    /// to `out`.
    pub(crate) fn fine_token_keys_of_attributes(
        attrs: &ObjectAttributes,
        out: &mut Vec<FineToken>,
    ) {
        FacetValues {
            class: Some(attrs.class),
            color: Some(attrs.color),
            size: Some(attrs.size),
            activity: Some(attrs.activity),
            location: Some(attrs.location),
            gender: Some(attrs.gender),
            relation: Some(attrs.relation),
            accessories: &attrs.accessories,
        }
        .push_tokens(out);
    }

    /// The fine token keys of a query's constraints — one per constrained
    /// facet.
    pub(crate) fn fine_token_keys_of_constraints(constraints: &QueryConstraints) -> Vec<FineToken> {
        let mut out = Vec::new();
        FacetValues {
            class: constraints.class,
            color: constraints.color,
            size: constraints.size,
            activity: constraints.activity,
            location: constraints.location,
            gender: constraints.gender,
            relation: constraints.relation,
            accessories: &constraints.accessories,
        }
        .push_tokens(&mut out);
        out
    }

    /// Per-facet fine-grained token vectors of an object — one token per
    /// present facet. The cross-modality transformer attends over these.
    pub fn fine_tokens_of_attributes(&self, attrs: &ObjectAttributes) -> Vec<Vec<f32>> {
        let mut keys = Vec::new();
        Self::fine_token_keys_of_attributes(attrs, &mut keys);
        keys.into_iter()
            .map(|k| self.fine_token_vector(k))
            .collect()
    }

    /// Per-facet fine-grained token vectors of a query's constraints.
    pub fn fine_tokens_of_constraints(&self, constraints: &QueryConstraints) -> Vec<Vec<f32>> {
        Self::fine_token_keys_of_constraints(constraints)
            .into_iter()
            .map(|k| self.fine_token_vector(k))
            .collect()
    }

    /// A deterministic "background" embedding for patches that cover no
    /// object (sky, pavement, vegetation), far from every attribute direction
    /// in expectation.
    pub fn background_embedding(&self, variant: usize) -> Vec<f32> {
        let mut rng = rng_for(self.seed, &format!("space.background.{variant}"));
        let mut v: Vec<f32> = (0..self.dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        l2_normalize(&mut v);
        v
    }
}

// The colour-family mapping must stay exhaustive; adding a colour without
// updating it is a compile error thanks to the match above.

#[cfg(test)]
mod tests {
    use super::*;
    use lovo_tensor::ops::dot;
    use lovo_video::object::{Accessory, Location, Relation};
    use lovo_video::ObjectClass;

    fn space() -> AttributeSpace {
        AttributeSpace::new(64, 7)
    }

    fn red_center_car() -> ObjectAttributes {
        ObjectAttributes::simple(ObjectClass::Car)
            .with_color(Color::Red)
            .with_location(Location::RoadCenter)
    }

    fn query_red_car() -> QueryConstraints {
        QueryConstraints {
            class: Some(ObjectClass::Car),
            color: Some(Color::Red),
            location: Some(Location::RoadCenter),
            ..Default::default()
        }
    }

    #[test]
    fn directions_are_unit_and_deterministic() {
        let s = space();
        let a = s.direction(AttributeFacet::Class, 2);
        let b = s.direction(AttributeFacet::Class, 2);
        assert_eq!(a, b);
        let norm: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-5);
        assert_ne!(a, s.direction(AttributeFacet::Class, 3));
        assert_ne!(a, s.direction(AttributeFacet::Color, 2));
    }

    #[test]
    fn matching_query_scores_higher_than_mismatch() {
        let s = space();
        let q = s.embed_constraints(&query_red_car(), DetailLevel::Coarse);
        let target = s.embed_attributes(&red_center_car(), DetailLevel::Coarse);
        let wrong_color = s.embed_attributes(
            &red_center_car().with_color(Color::Blue),
            DetailLevel::Coarse,
        );
        let wrong_class = s.embed_attributes(
            &ObjectAttributes::simple(ObjectClass::Bus).with_color(Color::Red),
            DetailLevel::Coarse,
        );
        assert!(dot(&q, &target) > dot(&q, &wrong_color));
        assert!(dot(&q, &target) > dot(&q, &wrong_class));
        assert!(dot(&q, &target) > 0.5);
    }

    #[test]
    fn similar_colors_partially_overlap() {
        let s = space();
        let white = s.embed_attributes(
            &ObjectAttributes::simple(ObjectClass::Person).with_color(Color::White),
            DetailLevel::Coarse,
        );
        let light = s.embed_attributes(
            &ObjectAttributes::simple(ObjectClass::Person).with_color(Color::Light),
            DetailLevel::Coarse,
        );
        let red = s.embed_attributes(
            &ObjectAttributes::simple(ObjectClass::Person).with_color(Color::Red),
            DetailLevel::Coarse,
        );
        assert!(dot(&white, &light) > dot(&white, &red));
    }

    #[test]
    fn coarse_view_ignores_relations_fine_view_does_not() {
        let s = space();
        let plain = red_center_car();
        let with_rel = red_center_car().with_relation(Relation::SideBySideWith(ObjectClass::Car));
        let coarse_plain = s.embed_attributes(&plain, DetailLevel::Coarse);
        let coarse_rel = s.embed_attributes(&with_rel, DetailLevel::Coarse);
        let fine_plain = s.embed_attributes(&plain, DetailLevel::Fine);
        let fine_rel = s.embed_attributes(&with_rel, DetailLevel::Fine);
        let coarse_gap = 1.0 - dot(&coarse_plain, &coarse_rel);
        let fine_gap = 1.0 - dot(&fine_plain, &fine_rel);
        assert!(coarse_gap < 1e-5, "coarse view should not see relations");
        assert!(fine_gap > 0.05, "fine view must distinguish relations");
    }

    #[test]
    fn background_is_far_from_objects() {
        let s = space();
        let bg = s.background_embedding(0);
        let car = s.embed_attributes(&red_center_car(), DetailLevel::Coarse);
        assert!(dot(&bg, &car).abs() < 0.5);
    }

    #[test]
    fn fine_tokens_cover_constrained_facets() {
        let s = space();
        let mut constraints = query_red_car();
        constraints.accessories.push(Accessory::WhiteRoof);
        constraints.relation = Some(Relation::SideBySideWith(ObjectClass::Car));
        let tokens = s.fine_tokens_of_constraints(&constraints);
        // class + color + location + relation kind + relation peer + accessory = 6
        assert_eq!(tokens.len(), 6);
        assert!(tokens.iter().all(|t| t.len() == 64));
        let empty = s.fine_tokens_of_constraints(&QueryConstraints::default());
        assert!(empty.is_empty());
    }

    #[test]
    fn fine_tokens_of_attributes_include_accessories() {
        let s = space();
        let attrs = ObjectAttributes::simple(ObjectClass::Bus)
            .with_accessory(Accessory::WhiteRoof)
            .with_accessory(Accessory::CargoLoad);
        let tokens = s.fine_tokens_of_attributes(&attrs);
        // class, color, size, activity, location + 2 accessories
        assert_eq!(tokens.len(), 7);
    }

    #[test]
    fn objects_and_queries_share_one_token_list() {
        let s = space();
        let attrs = ObjectAttributes::simple(ObjectClass::Person)
            .with_color(Color::Light)
            .with_gender(Gender::Woman)
            .with_relation(Relation::NextTo(ObjectClass::Car))
            .with_accessory(Accessory::Hat);
        let constraints = QueryConstraints {
            class: Some(attrs.class),
            color: Some(attrs.color),
            size: Some(attrs.size),
            activity: Some(attrs.activity),
            location: Some(attrs.location),
            relation: Some(attrs.relation),
            accessories: attrs.accessories.clone(),
            gender: Some(attrs.gender),
        };
        let mut keys = Vec::new();
        AttributeSpace::fine_token_keys_of_attributes(&attrs, &mut keys);
        assert_eq!(
            keys,
            AttributeSpace::fine_token_keys_of_constraints(&constraints)
        );
        use AttributeFacet as F;
        let expected = vec![
            s.direction(F::Class, attrs.class.code()),
            s.color_direction(attrs.color),
            s.direction(F::Size, attrs.size.code()),
            s.direction(F::Activity, attrs.activity.code()),
            s.direction(F::Location, attrs.location.code()),
            s.direction(F::Gender, Gender::Woman.code()),
            s.direction(F::RelationKind, attrs.relation.kind_code()),
            s.direction(F::RelationPeer, ObjectClass::Car.code()),
            s.direction(F::Accessory, Accessory::Hat.code()),
        ];
        assert_eq!(s.fine_tokens_of_attributes(&attrs), expected);
        assert_eq!(s.fine_tokens_of_constraints(&constraints), expected);
    }

    #[test]
    fn all_colors_have_a_family() {
        // Exhaustiveness is enforced by the match, but make sure families
        // group what Color::is_similar_to considers similar.
        for a in Color::ALL {
            for b in Color::ALL {
                if a != b && a.is_similar_to(&b) {
                    assert_eq!(
                        AttributeSpace::color_family_code(a),
                        AttributeSpace::color_family_code(b),
                        "{a:?} and {b:?} are similar but in different families"
                    );
                }
            }
        }
    }
}
