//! A hand-written writer for the legacy v1 `UCPT` layout, built from the
//! layout table in `ucp_storage::container`'s module doc and sharing no
//! code with the production encoder — so the v1 read path is held to an
//! independent writer, and no crate has to export one:
//!
//! ```text
//! magic "UCPT" | version u32 = 1
//! header_len u32 | header JSON bytes | header crc32c u32
//! section_count u32
//! per section:
//!   name_len u16 | name bytes
//!   dtype u8 | rank u8 | dims u64 × rank
//!   payload_len u64 | payload bytes | crc32c u32
//! ```

use ucp_repro::storage::crc::crc32c;
use ucp_repro::storage::Container;

/// `c` in the v1 layout (one whole-payload CRC per section, no block table).
pub fn encode_v1(c: &Container) -> Vec<u8> {
    let mut out = b"UCPT".to_vec();
    out.extend(1u32.to_le_bytes());
    out.extend((c.header.len() as u32).to_le_bytes());
    out.extend(c.header.as_bytes());
    out.extend(crc32c(c.header.as_bytes()).to_le_bytes());
    out.extend((c.sections.len() as u32).to_le_bytes());
    for s in &c.sections {
        let (dtype, dims) = (s.tensor.dtype(), s.tensor.shape().dims());
        out.extend((s.name.len() as u16).to_le_bytes());
        out.extend(s.name.as_bytes());
        out.extend([dtype.tag(), dims.len() as u8]);
        for d in dims {
            out.extend((*d as u64).to_le_bytes());
        }
        let mut payload = Vec::new();
        dtype.encode(s.tensor.as_slice(), &mut payload);
        out.extend((payload.len() as u64).to_le_bytes());
        out.extend(&payload);
        out.extend(crc32c(&payload).to_le_bytes());
    }
    out
}
