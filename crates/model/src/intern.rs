//! Interned, cheaply cloneable strings for the data-plane hot paths.
//!
//! The execution engine stamps every invocation log with its workflow
//! name and builds topic keys from it. With a plain `String` those stamps
//! cost one heap allocation per invocation; at loadgen rates that is the
//! single largest remaining allocation after buffer pooling. [`IStr`] is
//! an immutable reference-counted string: cloning it bumps a counter
//! instead of copying bytes, so a name allocated once at deployment time
//! is free to stamp onto millions of logs.

use std::borrow::Borrow;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// An immutable, reference-counted string. `Clone` is a refcount bump.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IStr(Arc<str>);

impl IStr {
    /// The string contents.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Deref for IStr {
    type Target = str;
    fn deref(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for IStr {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for IStr {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl From<&str> for IStr {
    fn from(s: &str) -> Self {
        IStr(Arc::from(s))
    }
}

impl From<String> for IStr {
    fn from(s: String) -> Self {
        IStr(Arc::from(s))
    }
}

impl From<&IStr> for String {
    fn from(s: &IStr) -> Self {
        s.as_str().to_string()
    }
}

impl From<IStr> for String {
    fn from(s: IStr) -> Self {
        s.as_str().to_string()
    }
}

impl Default for IStr {
    fn default() -> Self {
        IStr::from("")
    }
}

impl fmt::Display for IStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self)
    }
}

impl fmt::Debug for IStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl PartialEq<str> for IStr {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for IStr {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for IStr {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialEq<IStr> for str {
    fn eq(&self, other: &IStr) -> bool {
        self == other.as_str()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_the_allocation() {
        let a = IStr::from("workflow");
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.0, &b.0));
        assert_eq!(a, b);
        assert_eq!(a, "workflow");
        assert_eq!(a.as_str(), "workflow");
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
