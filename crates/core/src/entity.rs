//! Entities of the candidate vocabulary `V`.

use crate::attr::{AttrConstraint, AttributeValueId};
use crate::ids::{AttributeId, ClassId, EntityId};
use serde::{Deserialize, Serialize};

/// One entity of the candidate vocabulary.
///
/// In-class entities carry a fine-grained class and a full attribute
/// assignment; distractor entities (sampled "from Wikipedia pages" in the
/// paper's Step 1) carry neither.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Entity {
    /// Dense id within the vocabulary.
    pub id: EntityId,
    /// Unique surface form, e.g. `"Xinyang"`.
    pub name: String,
    /// Fine-grained class membership; `None` for distractors.
    pub class: Option<ClassId>,
    /// `(attribute, value)` assignment, sorted by attribute id.
    /// Empty for distractors.
    pub attrs: Vec<(AttributeId, AttributeValueId)>,
    /// Relative corpus frequency weight (Zipf-skewed). Governs how many
    /// sentences mention the entity; low-weight entities are the paper's
    /// "long-tail" entities with scarce context.
    pub freq_weight: f64,
}

impl Entity {
    /// Looks up this entity's value for one attribute.
    pub fn value_of(&self, attr: AttributeId) -> Option<AttributeValueId> {
        self.attrs.iter().find(|(a, _)| *a == attr).map(|(_, v)| *v)
    }

    /// Whether the entity satisfies an attribute-value constraint.
    #[inline]
    pub fn satisfies(&self, constraint: &AttrConstraint) -> bool {
        constraint.satisfied_by(&self.attrs)
    }

    /// Number of attribute values shared with another entity.
    ///
    /// The task formulation's ideal feature space positions entities closer
    /// the more attribute values they share; tests and the Figure 4 heat map
    /// use this as the ground-truth affinity.
    pub fn shared_attr_values(&self, other: &Entity) -> usize {
        self.attrs
            .iter()
            .filter(|pair| other.attrs.contains(pair))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ent(id: u32, class: Option<u16>, attrs: Vec<(u16, u16)>) -> Entity {
        Entity {
            id: EntityId::new(id),
            name: format!("e{id}"),
            class: class.map(ClassId::new),
            attrs: attrs
                .into_iter()
                .map(|(a, v)| (AttributeId::new(a), AttributeValueId(v)))
                .collect(),
            freq_weight: 1.0,
        }
    }

    #[test]
    fn distractors_have_no_class() {
        let d = ent(0, None, vec![]);
        assert_eq!(d.value_of(AttributeId::new(0)), None);
    }

    #[test]
    fn value_lookup_and_constraint_satisfaction() {
        let e = ent(1, Some(0), vec![(0, 2), (1, 1)]);
        assert_eq!(e.value_of(AttributeId::new(1)), Some(AttributeValueId(1)));
        let ok = AttrConstraint::new(vec![(AttributeId::new(0), AttributeValueId(2))]);
        let bad = AttrConstraint::new(vec![(AttributeId::new(0), AttributeValueId(3))]);
        assert!(e.satisfies(&ok));
        assert!(!e.satisfies(&bad));
    }

    #[test]
    fn shared_attr_values_counts_exact_pairs() {
        let a = ent(1, Some(0), vec![(0, 2), (1, 1)]);
        let b = ent(2, Some(0), vec![(0, 2), (1, 3)]);
        let c = ent(3, Some(0), vec![(0, 2), (1, 1)]);
        assert_eq!(a.shared_attr_values(&b), 1);
        assert_eq!(a.shared_attr_values(&c), 2);
        assert_eq!(a.shared_attr_values(&a), 2);
    }
}
