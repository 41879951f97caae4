//! The structured-clone value model used for all cross-worker communication.
//!
//! Web Workers cannot share memory (other than `SharedArrayBuffer`): every
//! `postMessage` payload is serialized with the structured-clone algorithm and
//! deep-copied into the receiving context's heap.  Browsix's asynchronous
//! system calls therefore copy every argument buffer twice — once into the
//! kernel and once back — which is one of the reasons synchronous system calls
//! are so much faster.  [`Message`] captures that model: it is a deep-copyable
//! value tree whose [`Message::byte_size`] drives the clone-cost model.
//!
//! The one escape the platform offers is `postMessage(msg, [buf])`: an
//! `ArrayBuffer` named in the *transfer list* changes owner instead of being
//! copied.  [`Worker::post_message_transfer`](crate::Worker::post_message_transfer)
//! models it; the receiver finds the moved buffers under the message's
//! `"transfer"` key and takes them out with [`Message::take_transfer`].

use std::collections::BTreeMap;

use crate::sab::SharedArrayBuffer;

/// The key a received message carries its transferred buffers under.
pub const TRANSFER_KEY: &str = "transfer";

/// A structured-clone-able value, the only kind of data that may cross a
/// worker boundary.
///
/// The variants mirror the subset of JavaScript values Browsix actually
/// exchanges: numbers, strings, byte buffers (`ArrayBuffer`s), arrays and
/// string-keyed maps.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Message {
    /// `null` / `undefined`.
    #[default]
    Null,
    /// A boolean.
    Bool(bool),
    /// A JavaScript number restricted to integral values (Browsix passes file
    /// descriptors, lengths, offsets and error codes this way).
    Int(i64),
    /// A floating-point number (timestamps).
    Float(f64),
    /// A string.
    Str(String),
    /// A byte buffer (the analogue of an `ArrayBuffer`/`Uint8Array`).
    Bytes(Vec<u8>),
    /// An array of values.
    Array(Vec<Message>),
    /// A string-keyed map (the analogue of a plain JavaScript object).
    Map(BTreeMap<String, Message>),
    /// A `SharedArrayBuffer` handle.  Unlike every other variant it is NOT
    /// deep-copied by the structured-clone algorithm: the receiving context
    /// gets another handle to the same memory, which is how the kernel hands
    /// a `MAP_SHARED` mapping to a process.
    Shared(SharedArrayBuffer),
}

impl Message {
    /// Deep-copies this value, exactly as the structured-clone algorithm does.
    ///
    /// The copy itself is what `Clone` already provides; this method exists to
    /// make call sites read like the browser API they are standing in for.
    pub fn structured_clone(&self) -> Message {
        self.clone()
    }

    /// The approximate number of payload bytes the structured-clone algorithm
    /// would have to serialize for this value.  Used by
    /// [`PlatformConfig::post_cost`](crate::PlatformConfig::post_cost).
    pub fn byte_size(&self) -> usize {
        match self {
            Message::Null => 1,
            Message::Bool(_) => 1,
            Message::Int(_) => 8,
            Message::Float(_) => 8,
            Message::Str(s) => 8 + s.len(),
            Message::Bytes(b) => 8 + b.len(),
            Message::Array(items) => 8 + items.iter().map(Message::byte_size).sum::<usize>(),
            Message::Map(map) => 8 + map.iter().map(|(k, v)| 8 + k.len() + v.byte_size()).sum::<usize>(),
            // Only the handle crosses the boundary; the memory is shared,
            // never serialized.
            Message::Shared(_) => 8,
        }
    }

    /// Builds an empty map value.
    pub fn map() -> Message {
        Message::Map(BTreeMap::new())
    }

    /// Inserts `value` under `key`, turning `self` into a map if necessary.
    ///
    /// Returns `self` for chaining, builder style.
    pub fn with(mut self, key: &str, value: impl Into<Message>) -> Message {
        if !matches!(self, Message::Map(_)) {
            self = Message::map();
        }
        if let Message::Map(ref mut map) = self {
            map.insert(key.to_owned(), value.into());
        }
        self
    }

    /// Looks up `key` if this value is a map.
    pub fn get(&self, key: &str) -> Option<&Message> {
        match self {
            Message::Map(map) => map.get(key),
            _ => None,
        }
    }

    /// The string payload, if this value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Message::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this value is an integer (or a bool).
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Message::Int(n) => Some(*n),
            Message::Bool(b) => Some(*b as i64),
            _ => None,
        }
    }

    /// The float payload, accepting integers as well.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Message::Float(x) => Some(*x),
            Message::Int(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The byte payload, if this value is a byte buffer.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Message::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// The array payload, if this value is an array.
    pub fn as_array(&self) -> Option<&[Message]> {
        match self {
            Message::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Convenience accessor: `self.get(key)` as a string.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(Message::as_str)
    }

    /// Convenience accessor: `self.get(key)` as an integer.
    pub fn get_int(&self, key: &str) -> Option<i64> {
        self.get(key).and_then(Message::as_int)
    }

    /// Convenience accessor: `self.get(key)` as bytes.
    pub fn get_bytes(&self, key: &str) -> Option<&[u8]> {
        self.get(key).and_then(Message::as_bytes)
    }

    /// Attaches a transfer list: the buffers go in under [`TRANSFER_KEY`] by
    /// move.  An empty list leaves the message as it is.
    pub(crate) fn with_transfer(self, transfer: Vec<Vec<u8>>) -> Message {
        if transfer.is_empty() {
            return self;
        }
        let items = transfer.into_iter().map(Message::Bytes).collect();
        self.with(TRANSFER_KEY, Message::Array(items))
    }

    /// Takes the buffers that were transferred with this message, in the
    /// order the sender listed them, by move; empty if there were none.
    pub fn take_transfer(&mut self) -> Vec<Vec<u8>> {
        let Message::Map(map) = self else {
            return Vec::new();
        };
        let Some(Message::Array(items)) = map.remove(TRANSFER_KEY) else {
            return Vec::new();
        };
        let bytes = |item| match item {
            Message::Bytes(buffer) => buffer,
            _ => Vec::new(),
        };
        items.into_iter().map(bytes).collect()
    }

    /// The shared-buffer payload, if this value is a `SharedArrayBuffer`.
    pub fn as_shared(&self) -> Option<&SharedArrayBuffer> {
        match self {
            Message::Shared(sab) => Some(sab),
            _ => None,
        }
    }

    /// Convenience accessor: `self.get(key)` as a shared buffer.
    pub fn get_shared(&self, key: &str) -> Option<&SharedArrayBuffer> {
        self.get(key).and_then(Message::as_shared)
    }
}

impl From<&str> for Message {
    fn from(value: &str) -> Self {
        Message::Str(value.to_owned())
    }
}

impl From<String> for Message {
    fn from(value: String) -> Self {
        Message::Str(value)
    }
}

impl From<i64> for Message {
    fn from(value: i64) -> Self {
        Message::Int(value)
    }
}

impl From<i32> for Message {
    fn from(value: i32) -> Self {
        Message::Int(value as i64)
    }
}

impl From<usize> for Message {
    fn from(value: usize) -> Self {
        Message::Int(value as i64)
    }
}

impl From<bool> for Message {
    fn from(value: bool) -> Self {
        Message::Bool(value)
    }
}

impl From<f64> for Message {
    fn from(value: f64) -> Self {
        Message::Float(value)
    }
}

impl From<Vec<u8>> for Message {
    fn from(value: Vec<u8>) -> Self {
        Message::Bytes(value)
    }
}

impl From<&[u8]> for Message {
    fn from(value: &[u8]) -> Self {
        Message::Bytes(value.to_vec())
    }
}

impl From<Vec<Message>> for Message {
    fn from(value: Vec<Message>) -> Self {
        Message::Array(value)
    }
}

impl From<Vec<String>> for Message {
    fn from(value: Vec<String>) -> Self {
        Message::Array(value.into_iter().map(Message::Str).collect())
    }
}

impl From<SharedArrayBuffer> for Message {
    fn from(value: SharedArrayBuffer) -> Self {
        Message::Shared(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_accessors_round_trip() {
        let msg = Message::map()
            .with("op", "open")
            .with("fd", 3i64)
            .with("data", vec![1u8, 2, 3])
            .with("ok", true);
        assert_eq!(msg.get_str("op"), Some("open"));
        assert_eq!(msg.get_int("fd"), Some(3));
        assert_eq!(msg.get_bytes("data"), Some(&[1u8, 2, 3][..]));
        assert_eq!(msg.get_int("ok"), Some(1));
        assert_eq!(msg.get("missing"), None);
    }

    #[test]
    fn with_on_non_map_replaces_value() {
        let msg = Message::Int(7).with("k", 1i64);
        assert_eq!(msg.get_int("k"), Some(1));
    }

    #[test]
    fn byte_size_counts_payloads() {
        let empty = Message::Null.byte_size();
        let bytes = Message::Bytes(vec![0u8; 1000]).byte_size();
        assert!(bytes >= 1000);
        assert!(empty < 16);

        let nested = Message::Array(vec![Message::Bytes(vec![0u8; 500]), Message::from("abc")]);
        assert!(nested.byte_size() >= 503);
    }

    #[test]
    fn structured_clone_is_deep() {
        let original = Message::map().with("buf", vec![9u8; 64]);
        let copy = original.structured_clone();
        assert_eq!(original, copy);
        // Mutating the copy must not affect the original.
        if let Message::Map(mut map) = copy {
            map.insert("buf".into(), Message::Bytes(vec![0u8; 1]));
            let mutated = Message::Map(map);
            assert_ne!(mutated, original);
        }
    }

    #[test]
    fn numeric_conversions() {
        assert_eq!(Message::from(5i32).as_int(), Some(5));
        assert_eq!(Message::from(5usize).as_int(), Some(5));
        assert_eq!(Message::from(2.5f64).as_float(), Some(2.5));
        assert_eq!(Message::Int(2).as_float(), Some(2.0));
        assert_eq!(Message::from("x").as_int(), None);
    }

    #[test]
    fn array_accessor() {
        let arr = Message::from(vec![Message::Int(1), Message::Int(2)]);
        assert_eq!(arr.as_array().unwrap().len(), 2);
        assert_eq!(Message::Null.as_array(), None);
    }

    #[test]
    fn shared_buffers_cross_by_handle() {
        let sab = SharedArrayBuffer::new(64);
        let msg = Message::map().with("sab", sab.clone());
        // The "clone" the receiving context gets aliases the same memory.
        let received = msg.structured_clone();
        let handle = received.get_shared("sab").unwrap();
        assert!(handle.same_buffer(&sab));
        sab.store_i32(0, 42).unwrap();
        assert_eq!(handle.load_i32(0).unwrap(), 42);
        // Equality is handle identity, and the clone cost is O(1).
        assert_eq!(msg.get("sab"), received.get("sab"));
        assert!(Message::Shared(sab).byte_size() < 16);
        assert_eq!(Message::Null.as_shared(), None);
    }

    #[test]
    fn a_transfer_list_goes_in_and_comes_out_by_move() {
        let buffer = vec![7u8; 4096];
        let staged = buffer.as_ptr();
        let mut msg = Message::map().with("seq", 1i64).with_transfer(vec![buffer, vec![1]]);
        let taken = msg.take_transfer();
        assert_eq!((taken[0].as_ptr(), taken[0].len()), (staged, 4096));
        assert_eq!(taken[1], [1]);
        assert_eq!(msg, Message::map().with("seq", 1i64), "the list is gone once taken");
        assert!(msg.take_transfer().is_empty());
        assert_eq!(Message::Int(3).with_transfer(Vec::new()), Message::Int(3));
    }

    #[test]
    fn string_vector_conversion() {
        let arr = Message::from(vec!["a".to_string(), "b".to_string()]);
        let items = arr.as_array().unwrap();
        assert_eq!(items[0].as_str(), Some("a"));
        assert_eq!(items[1].as_str(), Some("b"));
    }
}
