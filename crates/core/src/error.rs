//! Error type of the algorithm layer.

use maxrs_em::EmError;

use crate::events::EventError;

/// Errors raised by the [`MaxRsEngine`](crate::MaxRsEngine) facade itself —
/// strategy selection and option validation, as opposed to failures inside an
/// algorithm.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// Auto-selection would answer a query in memory although the dataset
    /// does not fit the external-memory budget `M`.  This happens when
    /// [`ExactMaxRsOptions::memory_rects`](crate::ExactMaxRsOptions) promises
    /// more in-memory rectangles than the engine's
    /// [`EmConfig`](maxrs_em::EmConfig) provides; the engine refuses rather
    /// than silently violating the I/O model.  Forcing
    /// [`ExecutionStrategy::InMemory`](crate::ExecutionStrategy) stays the
    /// explicit escape hatch for equivalence tests.
    InMemoryOverCapacity {
        /// Number of objects the query covers.
        objects: u64,
        /// Rectangles the EM configuration actually fits in memory.
        capacity: u64,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::InMemoryOverCapacity { objects, capacity } => write!(
                f,
                "dataset larger than M must go external: {objects} objects exceed the \
                 in-memory capacity of {capacity} rectangles (raise the buffer size or \
                 drop the memory_rects override)"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// Errors raised by the MaxRS / MaxCRS algorithms.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// An error bubbled up from the external-memory substrate.
    Em(EmError),
    /// The algorithm was invoked with an invalid parameter (e.g. a
    /// non-positive rectangle extent).
    InvalidParameter(String),
    /// The engine facade refused the run (see [`EngineError`]).
    Engine(EngineError),
    /// An event of a dynamic dataset was invalid (see
    /// [`EventError`](crate::EventError)).
    Event(EventError),
    /// Object `index` of a static input failed
    /// [`validate_object`](crate::validate_object): a non-finite
    /// coordinate, or a negative or non-finite weight.
    InvalidObject {
        /// Position of the object in the input slice.
        index: usize,
        /// What is wrong with it.
        error: EventError,
    },
    /// An internal invariant was violated (indicates a bug, reported instead
    /// of panicking so that long experiment sweeps fail gracefully).
    Internal(String),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Em(e) => write!(f, "external-memory error: {e}"),
            CoreError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            CoreError::Engine(e) => write!(f, "engine error: {e}"),
            CoreError::Event(e) => write!(f, "event error: {e}"),
            CoreError::InvalidObject { index, error } => write!(f, "object {index}: {error}"),
            CoreError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Em(e) => Some(e),
            CoreError::Engine(e) => Some(e),
            CoreError::Event(e) | CoreError::InvalidObject { error: e, .. } => Some(e),
            _ => None,
        }
    }
}

impl From<EmError> for CoreError {
    fn from(e: EmError) -> Self {
        CoreError::Em(e)
    }
}

impl From<EngineError> for CoreError {
    fn from(e: EngineError) -> Self {
        CoreError::Engine(e)
    }
}

impl From<EventError> for CoreError {
    fn from(e: EventError) -> Self {
        CoreError::Event(e)
    }
}

/// Result alias for the algorithm layer.
pub type Result<T> = std::result::Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversion_and_display() {
        let e: CoreError = EmError::InvalidConfig("x".into()).into();
        assert!(matches!(e, CoreError::Em(_)));
        assert!(e.to_string().contains("external-memory"));
        assert!(CoreError::InvalidParameter("bad width".into())
            .to_string()
            .contains("bad width"));
        assert!(CoreError::Internal("oops".into())
            .to_string()
            .contains("oops"));
        use std::error::Error;
        assert!(e.source().is_some());
        assert!(CoreError::Internal("x".into()).source().is_none());
    }

    #[test]
    fn event_error_wraps_and_displays() {
        let e: CoreError = EventError::DuplicateId(9).into();
        assert!(matches!(e, CoreError::Event(_)));
        assert!(e.to_string().contains("id 9"), "{e}");
        use std::error::Error;
        assert!(e.source().is_some());
    }

    #[test]
    fn engine_error_wraps_and_displays() {
        let e: CoreError = EngineError::InMemoryOverCapacity {
            objects: 1000,
            capacity: 64,
        }
        .into();
        assert!(matches!(e, CoreError::Engine(_)));
        let msg = e.to_string();
        assert!(msg.contains("must go external"), "{msg}");
        assert!(msg.contains("1000") && msg.contains("64"), "{msg}");
        use std::error::Error;
        assert!(e.source().is_some());
    }
}
