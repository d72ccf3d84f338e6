//! Inline operand lists for native operations.
//!
//! Every native operation addresses one or two sites and one or two ions;
//! only SIMD pulses batched wider than two carry more. [`Operands`] holds up
//! to two entries inline and spills longer lists to one boxed slice, so
//! emitting, copying and dropping an ordinary op never touches the heap.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// An operand list: up to two entries inline, longer lists on the heap.
///
/// Derefs to `[T]`, so it reads like the `Vec` it stands in for. Equality and
/// `Debug` see only the contents: an inline and a spilled list holding the
/// same entries compare equal, and both print as `[a, b, …]`.
#[derive(Clone)]
pub struct Operands<T>(Repr<T>);

#[derive(Clone)]
enum Repr<T> {
    One(T),
    Two([T; 2]),
    /// Empty, or longer than two. A boxed slice rather than a `Vec` keeps the
    /// list at 24 bytes; an empty box does not allocate.
    Spilled(Box<[T]>),
}

impl<T> Operands<T> {
    /// Appends `item`. The third entry moves the list to the heap.
    pub fn push(&mut self, item: T) {
        self.0 = match std::mem::replace(&mut self.0, Repr::Spilled(Box::default())) {
            Repr::One(a) => Repr::Two([a, item]),
            Repr::Two([a, b]) => Repr::Spilled(Box::new([a, b, item])),
            Repr::Spilled(items) if items.is_empty() => Repr::One(item),
            Repr::Spilled(items) => {
                let mut items = items.into_vec();
                items.push(item);
                Repr::Spilled(items.into_boxed_slice())
            }
        };
    }

    /// True if the entries live on the heap (lists longer than two).
    #[cfg(test)]
    fn is_spilled(&self) -> bool {
        matches!(&self.0, Repr::Spilled(items) if !items.is_empty())
    }
}

impl<T> Default for Operands<T> {
    fn default() -> Self {
        Operands(Repr::Spilled(Box::default()))
    }
}

impl<T> Deref for Operands<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match &self.0 {
            Repr::One(a) => std::slice::from_ref(a),
            Repr::Two(pair) => pair,
            Repr::Spilled(items) => items,
        }
    }
}

impl<T> DerefMut for Operands<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        match &mut self.0 {
            Repr::One(a) => std::slice::from_mut(a),
            Repr::Two(pair) => pair,
            Repr::Spilled(items) => items,
        }
    }
}

impl<T, const N: usize> From<[T; N]> for Operands<T> {
    fn from(items: [T; N]) -> Self {
        items.into_iter().collect()
    }
}

impl<T> From<Vec<T>> for Operands<T> {
    fn from(items: Vec<T>) -> Self {
        if items.len() > 2 {
            Operands(Repr::Spilled(items.into_boxed_slice()))
        } else {
            items.into_iter().collect()
        }
    }
}

impl<T> FromIterator<T> for Operands<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = Operands::default();
        out.extend(iter);
        out
    }
}

impl<T> Extend<T> for Operands<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for item in iter {
            self.push(item);
        }
    }
}

impl<'a, T> IntoIterator for &'a Operands<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: PartialEq> PartialEq for Operands<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: fmt::Debug> fmt::Debug for Operands<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiscc_grid::{QSite, QubitId};

    #[test]
    fn two_entries_stay_inline_and_the_third_spills() {
        let mut sites = Operands::from([QSite::new(0, 1)]);
        assert!(!sites.is_spilled());
        sites.push(QSite::new(0, 2));
        assert!(!sites.is_spilled());
        assert_eq!(*sites, [QSite::new(0, 1), QSite::new(0, 2)]);
        sites.push(QSite::new(0, 3));
        sites.push(QSite::new(0, 5));
        assert!(sites.is_spilled());
        assert_eq!(
            *sites,
            [QSite::new(0, 1), QSite::new(0, 2), QSite::new(0, 3), QSite::new(0, 5)]
        );
    }

    #[test]
    fn equality_and_debug_see_only_the_contents() {
        let inline = Operands::from([QubitId(4), QubitId(7)]);
        let mut spilled = Operands::from(vec![QubitId(4), QubitId(7), QubitId(9)]);
        assert!(spilled.is_spilled());
        assert_ne!(inline, spilled);
        // A list shortened in place stays on the heap but equals the inline one.
        spilled = Operands(Repr::Spilled(spilled[..2].to_vec().into_boxed_slice()));
        assert_eq!(inline, spilled);
        assert_eq!(format!("{inline:?}"), format!("{:?}", vec![QubitId(4), QubitId(7)]));
        assert_eq!(format!("{spilled:?}"), format!("{inline:?}"));
        assert_eq!(format!("{:?}", Operands::<QubitId>::default()), "[]");
    }

    #[test]
    fn conversions_and_mutation_through_the_slice() {
        let empty: Operands<QSite> = Vec::new().into();
        assert!(empty.is_empty() && !empty.is_spilled());
        let mut pair: Operands<QSite> = vec![QSite::new(0, 2), QSite::new(0, 3)].into();
        assert!(!pair.is_spilled());
        pair[1] = QSite::new(0, 1);
        assert_eq!(pair.iter().copied().collect::<Vec<_>>(), [QSite::new(0, 2), QSite::new(0, 1)]);
        let mut grown = Operands::default();
        grown.extend([QubitId(1), QubitId(2), QubitId(3)]);
        assert_eq!(grown, Operands::from([QubitId(1), QubitId(2), QubitId(3)]));
        assert_eq!((&grown).into_iter().count(), 3);
    }

    #[test]
    fn lists_of_sites_and_ions_fit_in_24_bytes() {
        assert_eq!(std::mem::size_of::<Operands<QSite>>(), 24);
        assert_eq!(std::mem::size_of::<Operands<QubitId>>(), 24);
    }
}
