//! Interned, cheaply cloneable strings for the data-plane hot paths.
//!
//! The execution engine stamps every invocation log with its workflow
//! name and builds topic keys from it. With a plain `String` those stamps
//! cost one heap allocation per invocation; at loadgen rates that is the
//! single largest remaining allocation after buffer pooling. [`IStr`] is
//! an immutable reference-counted string: cloning it bumps a counter
//! instead of copying bytes, so a name allocated once at deployment time
//! is free to stamp onto millions of logs. Hashing, ordering and
//! formatting are `str`'s.

use std::sync::Arc;

/// An immutable, reference-counted string. `Clone` is a refcount bump.
pub type IStr = Arc<str>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_the_allocation() {
        let a = IStr::from("workflow");
        let b = a.clone();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a, b);
        assert_eq!(&*a, "workflow");
    }

    #[test]
    fn orders_and_hashes_like_str() {
        use std::collections::HashMap;
        let mut m: HashMap<IStr, u32> = HashMap::new();
        m.insert(IStr::from("a"), 1);
        // Borrow<str> lets lookups skip the allocation.
        assert_eq!(m.get("a"), Some(&1));
        let (a, b) = (IStr::from("a"), IStr::from("b"));
        assert!(a < b);
    }
}
