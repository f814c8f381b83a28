//! SNAP-style text edge-list I/O.
//!
//! The paper's datasets ship in the SNAP format: `#`-prefixed comment lines
//! followed by whitespace-separated `src dst [weight]` rows. [`parse`]
//! accepts any `BufRead`; pass `&mut reader` if you need the reader back
//! afterwards.

use crate::edgelist::EdgeList;
use crate::error::GraphError;
use crate::types::Edge;
use std::io::{BufRead, Write};

/// Counts declared by a `# hyve-graph edge list: N vertices, M edges`
/// header comment, when present.
struct DeclaredCounts {
    line: usize,
    vertices: u32,
    edges: u64,
}

/// Recognizes the header comment [`write()`] emits. Any other `#` comment
/// returns `None` (plain SNAP files stay un-validated).
fn parse_header(trimmed: &str, line: usize) -> Option<Result<DeclaredCounts, GraphError>> {
    let rest = trimmed.strip_prefix("# hyve-graph edge list:")?;
    let bad = |message: String| Some(Err(GraphError::Parse { line, message }));
    let tokens: Vec<&str> = rest.split_whitespace().collect();
    if tokens.len() != 4 || tokens[1] != "vertices," || tokens[3] != "edges" {
        return bad("malformed hyve-graph header".into());
    }
    let Ok(vertices) = tokens[0].parse::<u32>() else {
        return bad(format!("invalid vertex count {:?} in header", tokens[0]));
    };
    let Ok(edges) = tokens[2].parse::<u64>() else {
        return bad(format!("invalid edge count {:?} in header", tokens[2]));
    };
    Some(Ok(DeclaredCounts {
        line,
        vertices,
        edges,
    }))
}

/// Parses a SNAP-style edge list. The vertex count is one past the largest
/// index seen (SNAP files carry no explicit count), unless the file opens
/// with the self-describing header [`write()`] emits — then the declared
/// vertex count is authoritative and the file is validated against it.
///
/// ```
/// use hyve_graph::io::parse;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let text = "# demo graph\n0\t1\n1 2 0.5\n";
/// let g = parse(text.as_bytes())?;
/// assert_eq!(g.num_vertices(), 3);
/// assert_eq!(g.len(), 2);
/// assert_eq!(g.edges()[1].weight, 0.5);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// [`GraphError::Parse`] with the 1-based line number on malformed rows,
/// non-finite weights, I/O failure, a malformed header, an edge count
/// that contradicts a header (truncated file), or, without a header, the
/// vertex id `u32::MAX` (its count would not fit in a `u32`);
/// [`GraphError::VertexOutOfRange`] when an edge references a vertex at or
/// beyond a header's declared count.
pub fn parse<R: BufRead>(reader: R) -> Result<EdgeList, GraphError> {
    let mut edges = Vec::new();
    let mut max_vertex = 0u32;
    let mut declared: Option<DeclaredCounts> = None;
    for (idx, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| GraphError::Parse {
            line: idx + 1,
            message: e.to_string(),
        })?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            // Only a leading header is authoritative; a hyve-graph banner
            // buried mid-file is treated as an ordinary comment.
            if edges.is_empty() && declared.is_none() {
                if let Some(header) = parse_header(trimmed, idx + 1) {
                    declared = Some(header?);
                }
            }
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let parse_u32 = |tok: Option<&str>, what: &str| -> Result<u32, GraphError> {
            tok.ok_or_else(|| GraphError::Parse {
                line: idx + 1,
                message: format!("missing {what}"),
            })?
            .parse()
            .map_err(|_| GraphError::Parse {
                line: idx + 1,
                message: format!("invalid {what}"),
            })
        };
        let src = parse_u32(parts.next(), "source vertex")?;
        let dst = parse_u32(parts.next(), "destination vertex")?;
        let weight: f32 = match parts.next() {
            Some(tok) => tok.parse().map_err(|_| GraphError::Parse {
                line: idx + 1,
                message: "invalid weight".into(),
            })?,
            None => 1.0,
        };
        if !weight.is_finite() {
            return Err(GraphError::Parse {
                line: idx + 1,
                message: format!("non-finite weight {weight}"),
            });
        }
        if let Some(d) = &declared {
            let oob = |vertex: u32| GraphError::VertexOutOfRange {
                vertex,
                num_vertices: d.vertices,
            };
            if src >= d.vertices {
                return Err(oob(src));
            }
            if dst >= d.vertices {
                return Err(oob(dst));
            }
            if edges.len() as u64 >= d.edges {
                return Err(GraphError::Parse {
                    line: idx + 1,
                    message: format!("more edges than the {} the header declares", d.edges),
                });
            }
        } else if src == u32::MAX || dst == u32::MAX {
            // Without a header the count is the largest id plus one, which
            // must itself fit in a `u32`.
            return Err(GraphError::Parse {
                line: idx + 1,
                message: format!("vertex id {} leaves no room for a vertex count", u32::MAX),
            });
        }
        max_vertex = max_vertex.max(src).max(dst);
        edges.push(Edge::with_weight(src, dst, weight));
    }
    let num_vertices = match &declared {
        Some(d) => {
            if (edges.len() as u64) < d.edges {
                return Err(GraphError::Parse {
                    line: d.line,
                    message: format!(
                        "truncated edge list: header declares {} edges, found {}",
                        d.edges,
                        edges.len()
                    ),
                });
            }
            d.vertices
        }
        None if edges.is_empty() => 0,
        None => max_vertex + 1,
    };
    Ok(EdgeList::from_vec(num_vertices, edges))
}

/// Writes an edge list in SNAP format. Weights are emitted only when ≠ 1.0.
/// A `&mut` writer may be passed if the writer is needed afterwards.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write<W: Write>(g: &EdgeList, mut writer: W) -> std::io::Result<()> {
    writeln!(
        writer,
        "# hyve-graph edge list: {} vertices, {} edges",
        g.num_vertices(),
        g.len()
    )?;
    for e in g.iter() {
        if e.weight == 1.0 {
            writeln!(writer, "{}\t{}", e.src.raw(), e.dst.raw())?;
        } else {
            writeln!(writer, "{}\t{}\t{}", e.src.raw(), e.dst.raw(), e.weight)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_comments_and_blank_lines() {
        let text = "# comment\n\n0 1\n# another\n2 3\n";
        let g = parse(text.as_bytes()).unwrap();
        assert_eq!(g.len(), 2);
        assert_eq!(g.num_vertices(), 4);
    }

    #[test]
    fn parses_weights() {
        let g = parse("0 1 2.5\n".as_bytes()).unwrap();
        assert_eq!(g.edges()[0].weight, 2.5);
    }

    #[test]
    fn rejects_the_largest_vertex_id_without_a_header() {
        for (text, want) in [("0 4294967295\n", 1), ("1 2\n4294967295 0\n", 2)] {
            match parse(text.as_bytes()) {
                Err(GraphError::Parse { line, .. }) => assert_eq!(line, want, "{text:?}"),
                other => panic!("{text:?} parsed as {other:?}"),
            }
        }
        // The largest id that still leaves a vertex count is accepted.
        let g = parse("4294967294 0\n".as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), u32::MAX);
    }

    #[test]
    fn reports_line_numbers() {
        let err = parse("0 1\nbogus\n".as_bytes()).unwrap_err();
        match err {
            GraphError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn missing_destination_is_an_error() {
        let err = parse("7\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("destination"));
    }

    #[test]
    fn empty_input_gives_empty_graph() {
        let g = parse("# nothing\n".as_bytes()).unwrap();
        assert!(g.is_empty());
        assert_eq!(g.num_vertices(), 0);
    }

    #[test]
    fn non_finite_weights_are_rejected() {
        for bad in ["0 1 NaN", "0 1 inf", "0 1 -inf"] {
            let err = parse(format!("{bad}\n").as_bytes()).unwrap_err();
            match err {
                GraphError::Parse { line, message } => {
                    assert_eq!(line, 1, "{bad}");
                    assert!(message.contains("non-finite"), "{bad}: {message}");
                }
                other => panic!("unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn header_vertex_count_is_authoritative() {
        // Isolated vertex 5 exists only through the declared count.
        let text = "# hyve-graph edge list: 6 vertices, 1 edges\n0 1\n";
        let g = parse(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 6);
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn header_rejects_out_of_range_vertex() {
        let text = "# hyve-graph edge list: 2 vertices, 1 edges\n0 2\n";
        let err = parse(text.as_bytes()).unwrap_err();
        assert_eq!(
            err,
            GraphError::VertexOutOfRange {
                vertex: 2,
                num_vertices: 2,
            }
        );
    }

    #[test]
    fn zero_vertex_header_with_edges_is_an_error() {
        let text = "# hyve-graph edge list: 0 vertices, 1 edges\n0 0\n";
        assert!(matches!(
            parse(text.as_bytes()),
            Err(GraphError::VertexOutOfRange { .. })
        ));
    }

    #[test]
    fn truncated_file_contradicts_header() {
        let text = "# hyve-graph edge list: 4 vertices, 3 edges\n0 1\n1 2\n";
        let err = parse(text.as_bytes()).unwrap_err();
        match err {
            GraphError::Parse { line, message } => {
                assert_eq!(line, 1, "blame lands on the header line");
                assert!(message.contains("truncated"), "{message}");
                assert!(message.contains("3 edges, found 2"), "{message}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn excess_edges_contradict_header() {
        let text = "# hyve-graph edge list: 4 vertices, 1 edges\n0 1\n1 2\n";
        let err = parse(text.as_bytes()).unwrap_err();
        match err {
            GraphError::Parse { line, message } => {
                assert_eq!(line, 3);
                assert!(message.contains("more edges"), "{message}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn malformed_header_is_an_error() {
        let err = parse("# hyve-graph edge list: lots of stuff\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("header"), "{err}");
        let err =
            parse("# hyve-graph edge list: -3 vertices, 1 edges\n0 1\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("vertex count"), "{err}");
    }

    #[test]
    fn mid_file_banner_is_just_a_comment() {
        let text = "0 1\n# hyve-graph edge list: 1 vertices, 0 edges\n1 2\n";
        let g = parse(text.as_bytes()).unwrap();
        assert_eq!(g.len(), 2);
        assert_eq!(g.num_vertices(), 3);
    }

    #[test]
    fn round_trip() {
        let mut orig = EdgeList::new(5);
        orig.extend([
            Edge::new(0, 1),
            Edge::with_weight(1, 4, 0.25),
            Edge::new(3, 2),
        ]);
        let mut buf = Vec::new();
        write(&orig, &mut buf).unwrap();
        let back = parse(buf.as_slice()).unwrap();
        assert_eq!(back.len(), orig.len());
        for (a, b) in back.iter().zip(orig.iter()) {
            assert_eq!(a, b);
        }
    }
}
