//! [`SmallSlice`]: an owned slice that keeps one element inline.

use std::fmt;
use std::ops::Deref;

/// An owned slice that is nearly always of length one: a trigger's tuple
/// variables, a `raise event`'s arguments, the values of the notification
/// it raises. Empty and one-element slices hold no heap block; longer ones
/// are one boxed slice. It derefs to `[T]`, and for a `Value` it is 24
/// bytes, as a `Vec<Value>` is (the tag lives in `Value`'s niche).
#[derive(Clone)]
pub struct SmallSlice<T>(Repr<T>);

/// The three forms. A slice of one is always `One` and a longer one always
/// `Many`, so equal slices have equal forms.
#[derive(Clone)]
enum Repr<T> {
    Empty,
    One(T),
    Many(Box<[T]>),
}

impl<T> Default for SmallSlice<T> {
    fn default() -> SmallSlice<T> {
        SmallSlice(Repr::Empty)
    }
}

impl<T> Deref for SmallSlice<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        match &self.0 {
            Repr::Empty => &[],
            Repr::One(one) => std::slice::from_ref(one),
            Repr::Many(many) => many,
        }
    }
}

impl<T> FromIterator<T> for SmallSlice<T> {
    /// Collects without a heap block for fewer than two elements.
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> SmallSlice<T> {
        let mut iter = iter.into_iter();
        let Some(first) = iter.next() else {
            return SmallSlice(Repr::Empty);
        };
        let Some(second) = iter.next() else {
            return SmallSlice(Repr::One(first));
        };
        let mut many = Vec::with_capacity(2 + iter.size_hint().0);
        many.extend([first, second]);
        many.extend(iter);
        SmallSlice(Repr::Many(many.into_boxed_slice()))
    }
}

impl<T> From<Vec<T>> for SmallSlice<T> {
    fn from(mut v: Vec<T>) -> SmallSlice<T> {
        match v.len() {
            0 => SmallSlice(Repr::Empty),
            1 => SmallSlice(Repr::One(v.pop().expect("one element"))),
            _ => SmallSlice(Repr::Many(v.into_boxed_slice())),
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for SmallSlice<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

impl<T: PartialEq> PartialEq for SmallSlice<T> {
    fn eq(&self, other: &SmallSlice<T>) -> bool {
        **self == **other
    }
}

impl<T: PartialEq> PartialEq<Vec<T>> for SmallSlice<T> {
    fn eq(&self, other: &Vec<T>) -> bool {
        **self == **other
    }
}

impl<T: PartialEq, const N: usize> PartialEq<[T; N]> for SmallSlice<T> {
    fn eq(&self, other: &[T; N]) -> bool {
        **self == *other
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;

    #[test]
    fn a_value_slice_is_the_size_of_a_vec() {
        assert_eq!(
            std::mem::size_of::<SmallSlice<Value>>(),
            std::mem::size_of::<Vec<Value>>()
        );
    }

    #[test]
    fn every_length_keeps_its_elements_in_order() {
        for n in 0..5i64 {
            let values: Vec<Value> = (0..n).map(Value::Int).collect();
            let collected: SmallSlice<Value> = values.iter().cloned().collect();
            let converted = SmallSlice::from(values.clone());
            assert_eq!(collected, values);
            assert_eq!(converted, collected);
            assert_eq!(&*collected.clone(), values.as_slice());
            assert_eq!(format!("{collected:?}"), format!("{values:?}"));
        }
    }

    #[test]
    fn forms_follow_the_length() {
        let form = |s: &SmallSlice<i32>| match s.0 {
            Repr::Empty => 0,
            Repr::One(_) => 1,
            Repr::Many(_) => 2,
        };
        assert_eq!(form(&SmallSlice::from(vec![])), 0);
        assert_eq!(form(&[7].into_iter().collect()), 1);
        assert_eq!(form(&SmallSlice::from(vec![7])), 1);
        assert_eq!(form(&[7, 8, 9].into_iter().collect()), 2);
    }
}
