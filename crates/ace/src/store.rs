//! The ACE object store: classes of named objects carrying tag-value
//! trees, with process-stable object identities.

use std::collections::HashMap;
use std::sync::Arc;

use kleisli_core::{KError, KResult, Oid, Value};

/// A tag's values within an object: each tag holds a list of values
/// (ACE models multi-valued tags as right-branches of the tag tree).
#[derive(Debug, Clone, PartialEq)]
pub struct AceObject {
    pub oid: Oid,
    pub name: String,
    /// tag → values; a value may be a scalar or a reference to another
    /// object (`Value::Ref`).
    pub tags: Vec<(String, Vec<Value>)>,
}

impl AceObject {
    /// Render the object as a CPL record: `[class, name, tag1, tag2, ...]`
    /// where a single-valued tag maps to its value and a multi-valued tag
    /// to a list.
    pub fn to_value(&self) -> Value {
        let mut fields: Vec<(Arc<str>, Value)> = vec![
            (Arc::from("class"), Value::str(&*self.oid.class)),
            (Arc::from("name"), Value::str(&self.name)),
        ];
        for (tag, vals) in &self.tags {
            let v = match vals.as_slice() {
                [one] => one.clone(),
                many => Value::list(many.to_vec()),
            };
            fields.push((Arc::from(tag.as_str()), v));
        }
        Value::record(fields)
    }
}

/// Classes of named objects.
#[derive(Debug, Default)]
pub struct AceStore {
    classes: HashMap<String, Vec<AceObject>>,
    by_oid: HashMap<Oid, (String, usize)>,
    next_id: u64,
}

impl AceStore {
    pub fn new() -> AceStore {
        AceStore::default()
    }

    /// Insert an object; returns its identity. Tag values referring to
    /// other objects should be built with [`AceStore::reference`].
    pub fn insert(
        &mut self,
        class: &str,
        name: &str,
        tags: Vec<(String, Vec<Value>)>,
    ) -> KResult<Oid> {
        if self.find(class, name).is_some() {
            return Err(KError::format(
                "ace",
                format!("object {class}:\"{name}\" already exists"),
            ));
        }
        self.next_id += 1;
        let oid = Oid {
            class: Arc::from(class),
            id: self.next_id,
        };
        let objs = self.classes.entry(class.to_string()).or_default();
        objs.push(AceObject {
            oid: oid.clone(),
            name: name.to_string(),
            tags,
        });
        self.by_oid
            .insert(oid.clone(), (class.to_string(), objs.len() - 1));
        Ok(oid)
    }

    /// A reference value to a (possibly not-yet-inserted) object; creates
    /// a stub object when the target does not exist, mirroring ACEDB's
    /// forward references in `.ace` files.
    pub fn reference(&mut self, class: &str, name: &str) -> Value {
        if let Some(o) = self.find(class, name) {
            return Value::Ref(o.oid.clone());
        }
        let oid = self
            .insert(class, name, Vec::new())
            .expect("stub insert cannot collide");
        Value::Ref(oid)
    }

    pub fn find(&self, class: &str, name: &str) -> Option<&AceObject> {
        self.classes.get(class)?.iter().find(|o| o.name == name)
    }

    fn find_mut(&mut self, class: &str, name: &str) -> Option<&mut AceObject> {
        self.classes
            .get_mut(class)?
            .iter_mut()
            .find(|o| o.name == name)
    }

    /// Add tag values to an existing object (or create it) — `.ace`
    /// paragraphs accumulate.
    pub fn upsert(&mut self, class: &str, name: &str, tags: Vec<(String, Vec<Value>)>) -> Oid {
        if self.find(class, name).is_none() {
            return match self.insert(class, name, tags) {
                Ok(oid) => oid,
                Err(_) => unreachable!("checked absence"),
            };
        }
        let obj = self.find_mut(class, name).expect("exists");
        for (tag, vals) in tags {
            match obj.tags.iter_mut().find(|(t, _)| *t == tag) {
                Some((_, existing)) => existing.extend(vals),
                None => obj.tags.push((tag, vals)),
            }
        }
        obj.oid.clone()
    }

    pub fn class(&self, class: &str) -> &[AceObject] {
        self.classes.get(class).map(Vec::as_slice).unwrap_or(&[])
    }

    pub fn classes(&self) -> impl Iterator<Item = &String> {
        self.classes.keys()
    }

    pub fn object_count(&self) -> usize {
        self.classes.values().map(Vec::len).sum()
    }

    /// Resolve an object identity to its record value.
    pub fn deref(&self, oid: &Oid) -> KResult<Value> {
        let (class, idx) = self
            .by_oid
            .get(oid)
            .ok_or_else(|| KError::eval(format!("dangling ACE reference {oid}")))?;
        Ok(self.classes[class][*idx].to_value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_find_deref() {
        let mut s = AceStore::new();
        let oid = s
            .insert(
                "Clone",
                "c22-5",
                vec![("Length".into(), vec![Value::Int(1200)])],
            )
            .unwrap();
        let obj = s.find("Clone", "c22-5").unwrap();
        assert_eq!(obj.oid, oid);
        let v = s.deref(&oid).unwrap();
        assert_eq!(v.project("Length"), Some(&Value::Int(1200)));
        assert_eq!(v.project("class"), Some(&Value::str("Clone")));
    }

    #[test]
    fn duplicate_insert_rejected() {
        let mut s = AceStore::new();
        s.insert("Clone", "x", vec![]).unwrap();
        assert!(s.insert("Clone", "x", vec![]).is_err());
    }

    #[test]
    fn forward_references_create_stubs_and_resolve() {
        let mut s = AceStore::new();
        let r = s.reference("Sequence", "seq-1"); // stub
        s.upsert(
            "Sequence",
            "seq-1",
            vec![("DNA".into(), vec![Value::str("ACGT")])],
        );
        let Value::Ref(oid) = &r else { panic!() };
        let v = s.deref(oid).unwrap();
        assert_eq!(v.project("DNA"), Some(&Value::str("ACGT")));
    }

    #[test]
    fn upsert_accumulates_multivalued_tags() {
        let mut s = AceStore::new();
        s.upsert(
            "Clone",
            "c1",
            vec![("Remark".into(), vec![Value::str("a")])],
        );
        s.upsert(
            "Clone",
            "c1",
            vec![("Remark".into(), vec![Value::str("b")])],
        );
        let v = s.find("Clone", "c1").unwrap().to_value();
        assert_eq!(
            v.project("Remark"),
            Some(&Value::list(vec![Value::str("a"), Value::str("b")]))
        );
    }

    #[test]
    fn dangling_reference_errors() {
        let s = AceStore::new();
        let oid = Oid {
            class: Arc::from("Clone"),
            id: 42,
        };
        assert!(s.deref(&oid).is_err());
    }
}
