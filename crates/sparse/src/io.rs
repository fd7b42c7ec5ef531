//! Matrix Market (`.mtx`) reading and writing.
//!
//! The paper's real-world inputs (Eukarya, Isolates, Metaclust50) ship as
//! Matrix Market files with the HipMCL software. The suite substitutes
//! synthetic stand-ins for those datasets (see DESIGN.md), but supports the
//! format so user-supplied matrices can be dropped into every harness.
//!
//! Supported: `matrix coordinate real|integer|pattern general|symmetric`.
//! Pattern entries read as value 1; symmetric files are expanded.

use crate::{CooMatrix, CscMatrix, Scalar, SparseError};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Most entries the reader reserves room for up front. The size line is
/// untrusted input: beyond this the triplet vectors grow as entries
/// arrive, and a short file is still caught by the entry-count check.
const MAX_RESERVED_ENTRIES: usize = 1 << 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Field {
    Real,
    Integer,
    Pattern,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Symmetry {
    General,
    Symmetric,
}

/// Reads a Matrix Market file into a [`CooMatrix<f64>`].
pub fn read_matrix_market(path: impl AsRef<Path>) -> Result<CooMatrix<f64>, SparseError> {
    let file = std::fs::File::open(path)?;
    read_matrix_market_from(BufReader::new(file))
}

/// Reads Matrix Market data from any reader.
pub fn read_matrix_market_from<R: Read>(reader: R) -> Result<CooMatrix<f64>, SparseError> {
    let mut lines = BufReader::new(reader).lines();

    let header = lines
        .next()
        .ok_or_else(|| SparseError::Parse("empty file".into()))??;
    let lower = header.to_ascii_lowercase();
    let tokens: Vec<&str> = lower.split_whitespace().collect();
    if tokens.len() < 5 || !tokens[0].starts_with("%%matrixmarket") {
        return Err(SparseError::Parse(format!(
            "not a MatrixMarket header: {header}"
        )));
    }
    if tokens[1] != "matrix" || tokens[2] != "coordinate" {
        return Err(SparseError::Parse(
            "only 'matrix coordinate' files are supported".into(),
        ));
    }
    let field = match tokens[3] {
        "real" => Field::Real,
        "integer" => Field::Integer,
        "pattern" => Field::Pattern,
        other => return Err(SparseError::Parse(format!("unsupported field '{other}'"))),
    };
    let symmetry = match tokens[4] {
        "general" => Symmetry::General,
        "symmetric" => Symmetry::Symmetric,
        other => {
            return Err(SparseError::Parse(format!(
                "unsupported symmetry '{other}'"
            )))
        }
    };

    // Skip comments, find the size line.
    let mut size_line = None;
    for line in lines.by_ref() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        size_line = Some(line);
        break;
    }
    let size_line = size_line.ok_or_else(|| SparseError::Parse("missing size line".into()))?;
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|t| {
            t.parse::<usize>()
                .map_err(|e| SparseError::Parse(format!("bad size token '{t}': {e}")))
        })
        .collect::<Result<_, _>>()?;
    if dims.len() != 3 {
        return Err(SparseError::Parse(format!(
            "size line must have 3 tokens, got {}",
            dims.len()
        )));
    }
    let (nrows, ncols, nnz) = (dims[0], dims[1], dims[2]);
    if nrows > u32::MAX as usize || ncols > u32::MAX as usize {
        return Err(SparseError::Parse(format!(
            "size {nrows}x{ncols} exceeds the u32 index range"
        )));
    }
    let expanded = match symmetry {
        Symmetry::General => Some(nnz),
        Symmetry::Symmetric => nnz.checked_mul(2),
    }
    .ok_or_else(|| SparseError::Parse(format!("entry count {nnz} overflows when expanded")))?;
    let mut coo = CooMatrix::with_capacity(nrows, ncols, expanded.min(MAX_RESERVED_ENTRIES));
    let mut seen = 0usize;
    for line in lines {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let r: usize = it
            .next()
            .ok_or_else(|| SparseError::Parse("missing row".into()))?
            .parse()
            .map_err(|e| SparseError::Parse(format!("bad row: {e}")))?;
        let c: usize = it
            .next()
            .ok_or_else(|| SparseError::Parse("missing col".into()))?
            .parse()
            .map_err(|e| SparseError::Parse(format!("bad col: {e}")))?;
        let v: f64 = match field {
            Field::Pattern => 1.0,
            _ => it
                .next()
                .ok_or_else(|| SparseError::Parse("missing value".into()))?
                .parse()
                .map_err(|e| SparseError::Parse(format!("bad value: {e}")))?,
        };
        if r == 0 || c == 0 || r > nrows || c > ncols {
            return Err(SparseError::Parse(format!(
                "entry ({r}, {c}) out of bounds for {nrows}x{ncols} (1-based)"
            )));
        }
        let (r0, c0) = ((r - 1) as u32, (c - 1) as u32);
        coo.push(r0, c0, v);
        if symmetry == Symmetry::Symmetric && r != c {
            coo.push(c0, r0, v);
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(SparseError::Parse(format!(
            "expected {nnz} entries, found {seen}"
        )));
    }
    Ok(coo)
}

/// Writes a matrix as `matrix coordinate real general`.
pub fn write_matrix_market<T: Scalar>(
    path: impl AsRef<Path>,
    m: &CscMatrix<T>,
) -> Result<(), SparseError> {
    let file = std::fs::File::create(path)?;
    write_matrix_market_to(BufWriter::new(file), m)
}

/// Writes Matrix Market data to any writer.
pub fn write_matrix_market_to<T: Scalar, W: Write>(
    mut w: W,
    m: &CscMatrix<T>,
) -> Result<(), SparseError> {
    writeln!(w, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(w, "% written by spk-sparse")?;
    writeln!(w, "{} {} {}", m.nrows(), m.ncols(), m.nnz())?;
    for (r, c, v) in m.iter() {
        writeln!(w, "{} {} {}", r + 1, c + 1, v.to_f64())?;
    }
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_through_memory() {
        let m = CscMatrix::try_new(
            4,
            3,
            vec![0, 2, 2, 4],
            vec![0, 3, 1, 2],
            vec![1.5, -2.0, 3.25, 4.0],
        )
        .unwrap();
        let mut buf = Vec::new();
        write_matrix_market_to(&mut buf, &m).unwrap();
        let coo = read_matrix_market_from(&buf[..]).unwrap();
        let back = coo.to_csc_sum_duplicates();
        assert!(back.approx_eq(&m, 0.0));
    }

    #[test]
    fn reads_pattern_files() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n3 3 2\n1 1\n3 2\n";
        let coo = read_matrix_market_from(text.as_bytes()).unwrap();
        let m = coo.to_csc();
        assert_eq!(m.get(0, 0).unwrap(), 1.0);
        assert_eq!(m.get(2, 1).unwrap(), 1.0);
    }

    #[test]
    fn expands_symmetric_files() {
        let text =
            "%%MatrixMarket matrix coordinate real symmetric\n% comment\n3 3 2\n2 1 5.0\n3 3 7.0\n";
        let coo = read_matrix_market_from(text.as_bytes()).unwrap();
        let m = coo.to_csc();
        assert_eq!(m.get(1, 0).unwrap(), 5.0);
        assert_eq!(m.get(0, 1).unwrap(), 5.0, "mirror entry expanded");
        assert_eq!(m.get(2, 2).unwrap(), 7.0, "diagonal not duplicated");
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn rejects_bad_headers_and_counts() {
        assert!(read_matrix_market_from("garbage\n1 1 0\n".as_bytes()).is_err());
        assert!(read_matrix_market_from(
            "%%MatrixMarket matrix array real general\n1 1 0\n".as_bytes()
        )
        .is_err());
        let short = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n";
        assert!(read_matrix_market_from(short.as_bytes()).is_err());
        let oob = "%%MatrixMarket matrix coordinate real general\n2 2 1\n5 1 1.0\n";
        assert!(read_matrix_market_from(oob.as_bytes()).is_err());
    }

    fn parse_error(text: &str) -> String {
        match read_matrix_market_from(text.as_bytes()) {
            Err(SparseError::Parse(msg)) => msg,
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_sizes_beyond_u32_indices() {
        // Row 2^32 + 1 would wrap to row 0 in a u32 index.
        let text =
            "%%MatrixMarket matrix coordinate real general\n4294967297 1 1\n4294967297 1 5.0\n";
        assert!(parse_error(text).contains("u32"));
        let wide = "%%MatrixMarket matrix coordinate real general\n1 4294967297 0\n";
        assert!(parse_error(wide).contains("u32"));
    }

    #[test]
    fn huge_entry_count_is_not_preallocated() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 99999999999999\n1 1 1.0\n";
        assert!(parse_error(text).contains("expected 99999999999999 entries, found 1"));
    }

    #[test]
    fn symmetric_entry_count_overflow_is_an_error() {
        let text =
            "%%MatrixMarket matrix coordinate real symmetric\n2 2 18446744073709551615\n1 1 1.0\n";
        assert!(parse_error(text).contains("overflows"));
    }
}
