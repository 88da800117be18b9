//! Memory requests and completions exchanged with the DRAM model.

/// Identifier the issuer attaches to a request so completions can be matched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub u64);

/// Kind of memory operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemOpKind {
    /// A 64-byte read burst.
    Read,
    /// A 64-byte write burst.
    Write,
}

/// A request presented to the memory controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Issuer-assigned identifier.
    pub id: RequestId,
    /// Byte address of the burst.
    pub addr: u64,
    /// Read or write.
    pub kind: MemOpKind,
}

impl MemRequest {
    /// Convenience constructor for a read.
    pub fn read(id: u64, addr: u64) -> Self {
        MemRequest {
            id: RequestId(id),
            addr,
            kind: MemOpKind::Read,
        }
    }

    /// Convenience constructor for a write.
    pub fn write(id: u64, addr: u64) -> Self {
        MemRequest {
            id: RequestId(id),
            addr,
            kind: MemOpKind::Write,
        }
    }

    /// Returns `true` for write requests.
    pub fn is_write(&self) -> bool {
        self.kind == MemOpKind::Write
    }
}

/// How a request's column access interacted with the row buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowBufferResult {
    /// The target row was already open.
    Hit,
    /// The bank was precharged; only an activate was needed.
    Miss,
    /// A different row was open and had to be precharged first.
    Conflict,
}

/// A read whose data returned, handed back to the issuer. Writes are
/// posted: they are done when their column command issues and produce no
/// completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemCompletion {
    /// The identifier the issuer supplied.
    pub id: RequestId,
    /// Byte address of the burst.
    pub addr: u64,
    /// Cycle at which the request entered the controller queue.
    pub enqueued_at: u64,
    /// Cycle at which the data transfer finished.
    pub completed_at: u64,
    /// Row-buffer outcome of the access.
    pub row_result: RowBufferResult,
}

impl MemCompletion {
    /// Queueing plus service latency in memory-clock cycles.
    pub fn latency(&self) -> u64 {
        self.completed_at.saturating_sub(self.enqueued_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_kind() {
        assert!(!MemRequest::read(1, 0x40).is_write());
        assert!(MemRequest::write(2, 0x80).is_write());
        assert_eq!(MemRequest::read(1, 0x40).id, RequestId(1));
    }

    #[test]
    fn completion_latency() {
        let c = MemCompletion {
            id: RequestId(0),
            addr: 0,
            enqueued_at: 100,
            completed_at: 146,
            row_result: RowBufferResult::Hit,
        };
        assert_eq!(c.latency(), 46);
    }
}
