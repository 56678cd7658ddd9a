//! Helpers shared by the serving property suites.

use kyrix_server::{LayerStore, SnapshotView};
use kyrix_storage::{Rect, Row, Value};

/// What `fetch_rect` on a `SeparableRaw` store must return for `rect`,
/// derived without it: the raw table's rows, through
/// [`SnapshotView::query`], over `rect` pulled back through the
/// placement's inverse affines and widened by half the object extent;
/// each row followed by its geometry — centre `(x_affine(x), y_affine(y))`,
/// the box of the constant object extent around it, and the row's
/// position in the result as tuple id.
pub fn separable_rows_by_formula(
    view: &dyn SnapshotView,
    store: &LayerStore,
    rect: &Rect,
) -> Vec<Row> {
    let LayerStore::SeparableRaw {
        table,
        x_affine,
        y_affine,
        x_col,
        y_col,
        obj_w,
        obj_h,
        ..
    } = store
    else {
        panic!("not a separable store: {store:?}");
    };
    let inv = |a: &kyrix_expr::Affine, v: f64| a.invert(v).expect("placement scale is not zero");
    let (x0, x1) = (
        inv(x_affine, rect.min_x - obj_w / 2.0),
        inv(x_affine, rect.max_x + obj_w / 2.0),
    );
    let (y0, y1) = (
        inv(y_affine, rect.min_y - obj_h / 2.0),
        inv(y_affine, rect.max_y + obj_h / 2.0),
    );
    let raw = view
        .query(
            &format!("SELECT * FROM {table} WHERE bbox && rect($1, $2, $3, $4)"),
            &[x0.min(x1), y0.min(y1), x0.max(x1), y0.max(y1)].map(Value::Float),
        )
        .unwrap();
    raw.rows
        .into_iter()
        .enumerate()
        .map(|(i, mut row)| {
            let cx = x_affine.apply(row.get(*x_col).as_f64().unwrap());
            let cy = y_affine.apply(row.get(*y_col).as_f64().unwrap());
            for g in [
                cx,
                cy,
                cx - obj_w / 2.0,
                cy - obj_h / 2.0,
                cx + obj_w / 2.0,
                cy + obj_h / 2.0,
            ] {
                row.values.push(Value::Float(g));
            }
            row.values.push(Value::Int(i as i64));
            row
        })
        .collect()
}
