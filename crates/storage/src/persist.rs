//! Database snapshots: save/load the full database to a single file.
//!
//! The paper's substrate (PostgreSQL) is durable; this gives the embedded
//! engine the equivalent capability so precomputed Kyrix applications can
//! restart without regenerating data. Format: a small binary header, then
//! per table its schema, its live rows (heap order), and its index
//! *definitions* — indexes are rebuilt on load (spatial ones via STR bulk
//! load), which keeps the format simple and compacts lazy deletions away.
//! Heap order survives the round trip, so a table clustered before saving
//! ([`crate::Table::cluster`]) comes back clustered.

use crate::catalog::{IndexKind, SpatialCols};
use crate::database::Database;
use crate::error::{Result, StorageError};
use crate::row::Row;
use crate::schema::Schema;
use crate::value::DataType;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"KYRXDB01";

fn io_err(e: std::io::Error) -> StorageError {
    StorageError::ExecError(format!("snapshot io: {e}"))
}

fn corrupt(msg: &str) -> StorageError {
    StorageError::DecodeError(format!("snapshot: {msg}"))
}

// ------------------------------------------------------------- primitives

fn write_u32<W: Write>(w: &mut W, v: u32) -> Result<()> {
    w.write_all(&v.to_le_bytes()).map_err(io_err)
}

fn write_u64<W: Write>(w: &mut W, v: u64) -> Result<()> {
    w.write_all(&v.to_le_bytes()).map_err(io_err)
}

fn write_str<W: Write>(w: &mut W, s: &str) -> Result<()> {
    write_u32(w, s.len() as u32)?;
    w.write_all(s.as_bytes()).map_err(io_err)
}

fn read_u32<R: Read>(r: &mut R) -> Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b).map_err(io_err)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b).map_err(io_err)?;
    Ok(u64::from_le_bytes(b))
}

fn read_str<R: Read>(r: &mut R) -> Result<String> {
    let len = read_u32(r)? as usize;
    if len > 1 << 24 {
        return Err(corrupt("string too long"));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf).map_err(io_err)?;
    String::from_utf8(buf).map_err(|_| corrupt("bad utf8"))
}

fn dtype_tag(d: DataType) -> u8 {
    match d {
        DataType::Bool => 0,
        DataType::Int => 1,
        DataType::Float => 2,
        DataType::Text => 3,
    }
}

fn dtype_from(tag: u8) -> Result<DataType> {
    Ok(match tag {
        0 => DataType::Bool,
        1 => DataType::Int,
        2 => DataType::Float,
        3 => DataType::Text,
        t => return Err(corrupt(&format!("bad dtype tag {t}"))),
    })
}

fn write_index_kind<W: Write>(w: &mut W, kind: &IndexKind) -> Result<()> {
    match kind {
        IndexKind::BTree { column } => {
            w.write_all(&[0]).map_err(io_err)?;
            write_str(w, column)
        }
        IndexKind::Hash { column } => {
            w.write_all(&[1]).map_err(io_err)?;
            write_str(w, column)
        }
        IndexKind::Spatial(SpatialCols::Point { x, y }) => {
            w.write_all(&[2]).map_err(io_err)?;
            write_str(w, x)?;
            write_str(w, y)
        }
        IndexKind::Spatial(SpatialCols::Bbox {
            min_x,
            min_y,
            max_x,
            max_y,
        }) => {
            w.write_all(&[3]).map_err(io_err)?;
            write_str(w, min_x)?;
            write_str(w, min_y)?;
            write_str(w, max_x)?;
            write_str(w, max_y)
        }
    }
}

fn read_index_kind<R: Read>(r: &mut R) -> Result<IndexKind> {
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag).map_err(io_err)?;
    Ok(match tag[0] {
        0 => IndexKind::BTree {
            column: read_str(r)?,
        },
        1 => IndexKind::Hash {
            column: read_str(r)?,
        },
        2 => IndexKind::Spatial(SpatialCols::Point {
            x: read_str(r)?,
            y: read_str(r)?,
        }),
        3 => IndexKind::Spatial(SpatialCols::Bbox {
            min_x: read_str(r)?,
            min_y: read_str(r)?,
            max_x: read_str(r)?,
            max_y: read_str(r)?,
        }),
        t => return Err(corrupt(&format!("bad index tag {t}"))),
    })
}

// ------------------------------------------------------------- save/load

impl Database {
    /// Write a snapshot of every table (schema, live rows, index
    /// definitions) to `path`.
    pub fn save_to(&self, path: impl AsRef<Path>) -> Result<()> {
        let file = std::fs::File::create(path).map_err(io_err)?;
        let mut w = BufWriter::new(file);
        w.write_all(MAGIC).map_err(io_err)?;
        let names = self.table_names();
        write_u32(&mut w, names.len() as u32)?;
        for name in names {
            let table = self.table(name)?;
            write_str(&mut w, name)?;
            // schema
            write_u32(&mut w, table.schema.len() as u32)?;
            for col in table.schema.columns() {
                write_str(&mut w, &col.name)?;
                w.write_all(&[dtype_tag(col.dtype)]).map_err(io_err)?;
            }
            // rows
            write_u64(&mut w, table.len() as u64)?;
            let mut io_failure = None;
            table.scan(|_, row| {
                if io_failure.is_some() {
                    return;
                }
                let bytes = row.encode();
                if let Err(e) = write_u32(&mut w, bytes.len() as u32)
                    .and_then(|()| w.write_all(&bytes).map_err(io_err))
                {
                    io_failure = Some(e);
                }
            })?;
            if let Some(e) = io_failure {
                return Err(e);
            }
            // index definitions
            let kinds: Vec<(String, IndexKind)> = table
                .indexes()
                .map(|i| (i.name.clone(), i.kind.clone()))
                .collect();
            write_u32(&mut w, kinds.len() as u32)?;
            for (name, kind) in kinds {
                write_str(&mut w, &name)?;
                write_index_kind(&mut w, &kind)?;
            }
        }
        w.flush().map_err(io_err)
    }

    /// Load a snapshot produced by [`Database::save_to`]. Indexes are
    /// rebuilt (spatial ones STR-bulk-loaded).
    pub fn load_from(path: impl AsRef<Path>) -> Result<Database> {
        let file = std::fs::File::open(path).map_err(io_err)?;
        let mut r = BufReader::new(file);
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic).map_err(io_err)?;
        if &magic != MAGIC {
            return Err(corrupt("bad magic (not a kyrix snapshot)"));
        }
        let mut db = Database::new();
        let table_count = read_u32(&mut r)?;
        for _ in 0..table_count {
            let name = read_str(&mut r)?;
            let col_count = read_u32(&mut r)? as usize;
            let mut schema = Schema::empty();
            for _ in 0..col_count {
                let col_name = read_str(&mut r)?;
                let mut tag = [0u8; 1];
                r.read_exact(&mut tag).map_err(io_err)?;
                schema = schema.with(col_name, dtype_from(tag[0])?);
            }
            let schema_for_rows = schema.clone();
            db.create_table(&name, schema)?;
            let row_count = read_u64(&mut r)?;
            let mut buf = Vec::new();
            for _ in 0..row_count {
                let len = read_u32(&mut r)? as usize;
                if len > 1 << 26 {
                    return Err(corrupt("row too large"));
                }
                buf.resize(len, 0);
                r.read_exact(&mut buf).map_err(io_err)?;
                let row = Row::decode(&buf, &schema_for_rows)?;
                db.insert(&name, row)?;
            }
            let index_count = read_u32(&mut r)?;
            for _ in 0..index_count {
                let index_name = read_str(&mut r)?;
                let kind = read_index_kind(&mut r)?;
                db.create_index(&name, index_name, kind)?;
            }
        }
        Ok(db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn sample_db() -> Database {
        let mut db = Database::new();
        db.create_table(
            "dots",
            Schema::empty()
                .with("id", DataType::Int)
                .with("x", DataType::Float)
                .with("y", DataType::Float)
                .with("label", DataType::Text)
                .with("flag", DataType::Bool),
        )
        .unwrap();
        for i in 0..500i64 {
            db.insert(
                "dots",
                Row::new(vec![
                    Value::Int(i),
                    Value::Float((i % 25) as f64),
                    Value::Float((i / 25) as f64),
                    if i % 7 == 0 {
                        Value::Null
                    } else {
                        Value::Text(format!("dot {i}"))
                    },
                    Value::Bool(i % 2 == 0),
                ]),
            )
            .unwrap();
        }
        db.create_index(
            "dots",
            "sp",
            IndexKind::Spatial(SpatialCols::Point {
                x: "x".into(),
                y: "y".into(),
            }),
        )
        .unwrap();
        db.create_index(
            "dots",
            "byid",
            IndexKind::Hash {
                column: "id".into(),
            },
        )
        .unwrap();
        db.create_table("empty", Schema::empty().with("a", DataType::Int))
            .unwrap();
        db
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("kyrix_snapshot_{name}_{}", std::process::id()));
        p
    }

    #[test]
    fn roundtrip_preserves_rows_and_indexes() {
        let db = sample_db();
        let path = tmp("roundtrip");
        db.save_to(&path).unwrap();
        let loaded = Database::load_from(&path).unwrap();
        std::fs::remove_file(&path).ok();

        assert_eq!(loaded.table_names(), vec!["dots", "empty"]);
        assert_eq!(loaded.table("dots").unwrap().len(), 500);
        // spatial queries work on the rebuilt R-tree
        let r = loaded
            .query(
                "SELECT COUNT(*) FROM dots WHERE bbox && rect(0, 0, 4, 4)",
                &[],
            )
            .unwrap();
        assert_eq!(r.rows[0].get(0), &Value::Int(25));
        // hash probe works and values survive (incl. NULLs and text)
        let r = loaded
            .query("SELECT label, flag FROM dots WHERE id = 7", &[])
            .unwrap();
        assert_eq!(r.rows[0].get(0), &Value::Null);
        assert_eq!(r.rows[0].get(1), &Value::Bool(false));
        let r = loaded
            .query("SELECT label FROM dots WHERE id = 8", &[])
            .unwrap();
        assert_eq!(r.rows[0].get(0), &Value::Text("dot 8".into()));
    }

    #[test]
    fn snapshot_compacts_deleted_rows() {
        let mut db = sample_db();
        db.delete_where("dots", "id < 100", &[]).unwrap();
        let path = tmp("compact");
        db.save_to(&path).unwrap();
        let loaded = Database::load_from(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.table("dots").unwrap().len(), 400);
        let r = loaded
            .query("SELECT * FROM dots WHERE id = 50", &[])
            .unwrap();
        assert!(r.rows.is_empty());
    }

    #[test]
    fn a_clustered_heap_keeps_its_order() {
        // rows are saved in heap order and loaded by appending, so the
        // order `cluster` gave a table is the order it comes back in
        let mut db = sample_db();
        let scan_ids = |db: &Database| {
            let mut ids = Vec::new();
            db.table("dots")
                .unwrap()
                .scan(|_, row| ids.push(row.get(0).clone()))
                .unwrap();
            ids
        };
        let loaded_order = scan_ids(&db);
        db.cluster("dots", "sp").unwrap();
        let clustered_order = scan_ids(&db);
        assert_ne!(clustered_order, loaded_order);
        let path = tmp("clustered");
        db.save_to(&path).unwrap();
        let loaded = Database::load_from(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(scan_ids(&loaded), clustered_order);
    }

    #[test]
    fn rejects_garbage_files() {
        let path = tmp("garbage");
        std::fs::write(&path, b"definitely not a snapshot").unwrap();
        let e = Database::load_from(&path);
        std::fs::remove_file(&path).ok();
        assert!(matches!(e, Err(StorageError::DecodeError(_))));
        // truncated file
        let db = sample_db();
        let path = tmp("truncated");
        db.save_to(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let e = Database::load_from(&path);
        std::fs::remove_file(&path).ok();
        assert!(e.is_err());
    }

    #[test]
    fn missing_file_is_an_io_error() {
        assert!(Database::load_from("/definitely/not/here.kyrix").is_err());
    }
}
