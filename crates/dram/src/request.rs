/// Kind of a memory request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ReqKind {
    /// A 64-byte read transaction.
    #[default]
    Read,
    /// A 64-byte write transaction.
    Write,
}

/// A tagged enum: one tag byte, 0 for a read and 1 for a write.
impl crate::snap::Snap for ReqKind {
    const MIN_BYTES: usize = 1;

    fn save(&self, enc: &mut crate::snap::Encoder) {
        enc.u8(*self as u8);
    }

    fn load(&mut self, dec: &mut crate::snap::Decoder<'_>) -> Result<(), crate::snap::SnapError> {
        *self = match dec.u8()? {
            0 => ReqKind::Read,
            1 => ReqKind::Write,
            _ => return Err(crate::snap::SnapError::BadValue),
        };
        Ok(())
    }
}

/// A memory transaction presented to the [`crate::MemorySystem`].
///
/// Requests operate at cache-line (transaction) granularity; the `id` is an
/// opaque tag echoed back in the matching [`MemResponse`] so callers can
/// correlate completions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemRequest {
    /// Physical byte address (aligned down to the transaction size
    /// internally).
    pub addr: u64,
    /// Read or write.
    pub kind: ReqKind,
    /// Caller-chosen tag echoed in the response.
    pub id: u64,
}

crate::snap_fields!(MemRequest { addr, kind, id });

impl MemRequest {
    /// Creates a read request.
    pub fn read(addr: u64, id: u64) -> Self {
        Self {
            addr,
            kind: ReqKind::Read,
            id,
        }
    }

    /// Creates a write request.
    pub fn write(addr: u64, id: u64) -> Self {
        Self {
            addr,
            kind: ReqKind::Write,
            id,
        }
    }

    /// Whether this is a read.
    pub fn is_read(&self) -> bool {
        self.kind == ReqKind::Read
    }
}

/// Completion of a [`MemRequest`].
///
/// Reads complete when their data burst finishes on the bus; writes
/// complete when the write data has been transferred to the device.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemResponse {
    /// The tag of the completed request.
    pub id: u64,
    /// The (aligned) address of the completed request.
    pub addr: u64,
    /// Read or write.
    pub kind: ReqKind,
    /// Bus-clock cycle at which the transaction completed.
    pub done_at: u64,
}

crate::snap_fields!(MemResponse {
    id,
    addr,
    kind,
    done_at
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_kind() {
        assert!(MemRequest::read(0x100, 1).is_read());
        assert!(!MemRequest::write(0x100, 2).is_read());
    }
}
