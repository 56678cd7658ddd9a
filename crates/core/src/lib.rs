//! `kyrix-core`: the paper's primary contribution — a declarative model for
//! scalable details-on-demand visualizations, plus its compiler.
//!
//! The model has two basic abstractions (paper §2.1):
//! * a **canvas** ([`CanvasSpec`]) — an arbitrary-size worksheet with
//!   overlaid **layers** ([`LayerSpec`]), each specifying a data transform
//!   (SQL + derived columns), a placement function, and a rendering function;
//! * a **jump** ([`JumpSpec`]) — a customized transition between canvases
//!   (geometric zoom, semantic zoom, or both).
//!
//! Specs are built with a Rust builder API that mirrors the paper's
//! Figure 3 JavaScript, or loaded from JSON ([`json`]). [`compile`] validates
//! a spec against a [`kyrix_storage::Database`] and produces a
//! [`CompiledApp`] with all expressions compiled and every layer classified
//! as separable/non-separable (§3.2).
//!
//! ```
//! use kyrix_core::*;
//! use kyrix_storage::{Database, Schema, DataType, Row, Value};
//!
//! let mut db = Database::new();
//! db.create_table("dots", Schema::empty()
//!     .with("id", DataType::Int)
//!     .with("x", DataType::Float)
//!     .with("y", DataType::Float)).unwrap();
//! db.insert("dots", Row::new(vec![Value::Int(0), Value::Float(1.0), Value::Float(2.0)])).unwrap();
//!
//! let spec = AppSpec::new("quick")
//!     .add_transform(TransformSpec::query("dots", "SELECT * FROM dots"))
//!     .add_canvas(CanvasSpec::new("main", 10000.0, 10000.0).layer(
//!         LayerSpec::dynamic("dots", PlacementSpec::point("x", "y"),
//!                            RenderSpec::Marks(MarkEncoding::circle()))))
//!     .initial("main", 0.0, 0.0);
//! let app = compile(&spec, &db).unwrap();
//! assert_eq!(app.canvases.len(), 1);
//! ```

pub mod app;
pub mod canvas;
pub mod compiler;
pub mod error;
pub mod json;
pub mod jump;
pub mod placement;
pub mod render_spec;
pub mod transform;
pub mod zoom;

pub use app::AppSpec;
pub use canvas::{CanvasSpec, LayerSpec, PlanHint};
pub use compiler::{
    compile, CompiledApp, CompiledCanvas, CompiledJump, CompiledLayer, CompiledTransform,
};
pub use error::{CompileError, CoreError, Result};
pub use json::{parse_json, spec_from_json, spec_from_json_str, spec_to_json, Json};
pub use jump::{JumpSpec, JumpType};
pub use placement::{analyze_separability, CompiledPlacement, PlacementSpec, Separability};
pub use render_spec::{
    ColorEncoding, CompiledEncoding, CompiledRender, MarkEncoding, RampKind, RenderSpec,
};
pub use transform::TransformSpec;
pub use zoom::{link_zoom_levels, ZoomLevelRef};
