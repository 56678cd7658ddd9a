//! A from-scratch JSON reader/writer plus the [`AppSpec`] ⇄ JSON mapping,
//! so Kyrix applications can be written as `.json` files (the declarative
//! analog of the paper's JavaScript spec in Figure 3).
//!
//! No serde: this doubles as part of the declarative-spec substrate and
//! keeps the dependency set minimal.

use crate::app::AppSpec;
use crate::canvas::{CanvasSpec, LayerSpec, PlanHint};
use crate::error::{CoreError, Result};
use crate::jump::{JumpSpec, JumpType};
use crate::placement::PlacementSpec;
use crate::render_spec::{ColorEncoding, MarkEncoding, RampKind, RenderSpec};
use crate::transform::TransformSpec;
use kyrix_render::{Color, Mark, MarkType};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Object with insertion order preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Serialize with 2-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, 0);
        s
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Str(s) => write_json_string(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, depth + 1);
                    v.write(out, depth + 1);
                }
                newline_indent(out, depth);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, depth + 1);
                    write_json_string(out, k);
                    out.push_str(": ");
                    v.write(out, depth + 1);
                }
                newline_indent(out, depth);
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, depth: usize) {
    out.push('\n');
    for _ in 0..2 * depth {
        out.push(' ');
    }
}

fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ------------------------------------------------------------------ parse

/// How deeply arrays and objects may nest. The parser recurses once per
/// level, so a deeper document is refused instead of overflowing the stack.
const MAX_JSON_DEPTH: usize = 256;

/// Parse a JSON document. Arrays and objects nested more than 256 deep
/// are an error.
pub fn parse_json(src: &str) -> Result<Json> {
    let mut p = JParser {
        bytes: src.as_bytes(),
        src,
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(CoreError::Json(format!(
            "trailing characters at byte {}",
            p.pos
        )));
    }
    Ok(v)
}

struct JParser<'a> {
    bytes: &'a [u8],
    src: &'a str,
    pos: usize,
}

impl<'a> JParser<'a> {
    fn err(&self, m: &str) -> CoreError {
        CoreError::Json(format!("{m} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, c: u8) -> Result<()> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", c as char)))
        }
    }

    /// One value inside `depth` enclosing arrays and objects.
    fn value(&mut self, depth: usize) -> Result<Json> {
        match self.peek() {
            Some(b'[' | b'{') if depth == MAX_JSON_DEPTH => {
                Err(self.err(&format!("nesting deeper than {MAX_JSON_DEPTH}")))
            }
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth + 1),
            Some(b'{') => self.object(depth + 1),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("unexpected character")),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json> {
        if self.src[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn number(&mut self) -> Result<Json> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|c| {
            c.is_ascii_digit() || c == b'.' || c == b'e' || c == b'E' || c == b'+' || c == b'-'
        }) {
            self.pos += 1;
        }
        self.src[start..self.pos]
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("bad number"))
    }

    fn string(&mut self) -> Result<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .src
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid codepoint"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // consume one UTF-8 char
                    let rest = &self.src[self.pos..];
                    let ch = rest.chars().next().unwrap();
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value(depth)?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

// ------------------------------------------------------- spec <-> JSON

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn s(v: &str) -> Json {
    Json::Str(v.to_string())
}

fn opt_str(v: &Option<String>) -> Json {
    match v {
        Some(x) => s(x),
        None => Json::Null,
    }
}

/// Serialize an [`AppSpec`] to JSON.
pub fn spec_to_json(spec: &AppSpec) -> Json {
    obj(vec![
        ("name", s(&spec.name)),
        (
            "viewport",
            Json::Arr(vec![
                Json::Num(spec.viewport_width),
                Json::Num(spec.viewport_height),
            ]),
        ),
        (
            "initial",
            obj(vec![
                ("canvas", s(&spec.initial_canvas)),
                ("cx", Json::Num(spec.initial_center.0)),
                ("cy", Json::Num(spec.initial_center.1)),
            ]),
        ),
        (
            "transforms",
            Json::Arr(spec.transforms.iter().map(transform_to_json).collect()),
        ),
        (
            "canvases",
            Json::Arr(spec.canvases.iter().map(canvas_to_json).collect()),
        ),
        (
            "jumps",
            Json::Arr(spec.jumps.iter().map(jump_to_json).collect()),
        ),
    ])
}

fn transform_to_json(t: &TransformSpec) -> Json {
    obj(vec![
        ("id", s(&t.id)),
        ("query", opt_str(&t.query)),
        (
            "derived",
            Json::Obj(t.derived.iter().map(|(k, v)| (k.clone(), s(v))).collect()),
        ),
    ])
}

fn canvas_to_json(c: &CanvasSpec) -> Json {
    obj(vec![
        ("id", s(&c.id)),
        ("width", Json::Num(c.width)),
        ("height", Json::Num(c.height)),
        (
            "layers",
            Json::Arr(c.layers.iter().map(layer_to_json).collect()),
        ),
    ])
}

fn layer_to_json(l: &LayerSpec) -> Json {
    let mut fields = vec![
        ("transform", s(&l.transform)),
        ("static", Json::Bool(l.is_static)),
    ];
    if let Some(h) = l.plan_hint {
        fields.push(("plan_hint", s(h.name())));
    }
    if let Some(p) = &l.placement {
        fields.push((
            "placement",
            obj(vec![
                ("x", s(&p.x)),
                ("y", s(&p.y)),
                ("width", s(&p.width)),
                ("height", s(&p.height)),
            ]),
        ));
    }
    fields.push(("rendering", render_to_json(&l.rendering)));
    obj(fields)
}

fn render_to_json(r: &RenderSpec) -> Json {
    match r {
        RenderSpec::Marks(enc) => {
            let mut fields = vec![
                ("kind", s("marks")),
                ("mark", s(enc.mark.name())),
                ("size", s(&enc.size)),
                ("fill", s(&enc.fill)),
            ];
            if let Some(c) = &enc.color {
                fields.push((
                    "color",
                    obj(vec![
                        ("field", s(&c.field)),
                        ("d0", Json::Num(c.d0)),
                        ("d1", Json::Num(c.d1)),
                        ("ramp", s(c.ramp.name())),
                    ]),
                ));
            }
            if let Some(st) = &enc.stroke {
                fields.push(("stroke", s(st)));
            }
            if let Some(l) = &enc.label {
                fields.push(("label", s(l)));
            }
            obj(fields)
        }
        RenderSpec::Static(marks) => obj(vec![
            ("kind", s("static")),
            ("marks", Json::Arr(marks.iter().map(mark_to_json).collect())),
        ]),
    }
}

fn color_hex(c: &Color) -> String {
    format!("#{:02x}{:02x}{:02x}{:02x}", c.r, c.g, c.b, c.a)
}

fn mark_to_json(m: &Mark) -> Json {
    match m {
        Mark::Circle {
            cx,
            cy,
            r,
            fill,
            stroke,
        } => obj(vec![
            ("mark", s("circle")),
            ("cx", Json::Num(*cx)),
            ("cy", Json::Num(*cy)),
            ("r", Json::Num(*r)),
            ("fill", s(&color_hex(fill))),
            (
                "stroke",
                stroke
                    .as_ref()
                    .map(|c| s(&color_hex(c)))
                    .unwrap_or(Json::Null),
            ),
        ]),
        Mark::Rect {
            x,
            y,
            w,
            h,
            fill,
            stroke,
        } => obj(vec![
            ("mark", s("rect")),
            ("x", Json::Num(*x)),
            ("y", Json::Num(*y)),
            ("w", Json::Num(*w)),
            ("h", Json::Num(*h)),
            ("fill", s(&color_hex(fill))),
            (
                "stroke",
                stroke
                    .as_ref()
                    .map(|c| s(&color_hex(c)))
                    .unwrap_or(Json::Null),
            ),
        ]),
        Mark::Line {
            x0,
            y0,
            x1,
            y1,
            color,
        } => obj(vec![
            ("mark", s("line")),
            ("x0", Json::Num(*x0)),
            ("y0", Json::Num(*y0)),
            ("x1", Json::Num(*x1)),
            ("y1", Json::Num(*y1)),
            ("color", s(&color_hex(color))),
        ]),
        Mark::Polygon {
            points,
            fill,
            stroke,
        } => obj(vec![
            ("mark", s("polygon")),
            (
                "points",
                Json::Arr(
                    points
                        .iter()
                        .flat_map(|(x, y)| [Json::Num(*x), Json::Num(*y)])
                        .collect(),
                ),
            ),
            ("fill", s(&color_hex(fill))),
            (
                "stroke",
                stroke
                    .as_ref()
                    .map(|c| s(&color_hex(c)))
                    .unwrap_or(Json::Null),
            ),
        ]),
        Mark::Text {
            x,
            y,
            text,
            color,
            size,
        } => obj(vec![
            ("mark", s("text")),
            ("x", Json::Num(*x)),
            ("y", Json::Num(*y)),
            ("text", s(text)),
            ("color", s(&color_hex(color))),
            ("size", Json::Num(f64::from(*size))),
        ]),
    }
}

// ----------------------------------------------------------- from JSON

fn want_str(j: &Json, key: &str, ctx: &str) -> Result<String> {
    j.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| CoreError::Json(format!("{ctx}: missing string field `{key}`")))
}

fn want_num(j: &Json, key: &str, ctx: &str) -> Result<f64> {
    j.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| CoreError::Json(format!("{ctx}: missing number field `{key}`")))
}

fn opt_string(j: &Json, key: &str) -> Option<String> {
    j.get(key).and_then(Json::as_str).map(str::to_string)
}

/// Deserialize an [`AppSpec`] from JSON text.
pub fn spec_from_json_str(src: &str) -> Result<AppSpec> {
    spec_from_json(&parse_json(src)?)
}

/// Deserialize an [`AppSpec`] from a parsed JSON document.
pub fn spec_from_json(j: &Json) -> Result<AppSpec> {
    let name = want_str(j, "name", "app")?;
    let mut spec = AppSpec::new(name);
    if let Some(vp) = j.get("viewport").and_then(Json::as_arr) {
        if vp.len() == 2 {
            spec.viewport_width = vp[0].as_f64().unwrap_or(1024.0);
            spec.viewport_height = vp[1].as_f64().unwrap_or(1024.0);
        }
    }
    if let Some(init) = j.get("initial") {
        spec.initial_canvas = want_str(init, "canvas", "initial")?;
        spec.initial_center = (
            want_num(init, "cx", "initial")?,
            want_num(init, "cy", "initial")?,
        );
    }
    for t in j.get("transforms").and_then(Json::as_arr).unwrap_or(&[]) {
        let id = want_str(t, "id", "transform")?;
        let query = opt_string(t, "query");
        let mut derived: Vec<(String, String)> = Vec::new();
        if let Some(Json::Obj(fields)) = t.get("derived") {
            // order matters: keep file order
            for (k, v) in fields {
                let expr = v
                    .as_str()
                    .ok_or_else(|| CoreError::Json(format!("derived `{k}` must be a string")))?;
                derived.push((k.clone(), expr.to_string()));
            }
        }
        spec.transforms.push(TransformSpec { id, query, derived });
    }
    for c in j.get("canvases").and_then(Json::as_arr).unwrap_or(&[]) {
        let id = want_str(c, "id", "canvas")?;
        let mut canvas = CanvasSpec::new(
            id.clone(),
            want_num(c, "width", &id)?,
            want_num(c, "height", &id)?,
        );
        for l in c.get("layers").and_then(Json::as_arr).unwrap_or(&[]) {
            let transform = want_str(l, "transform", "layer")?;
            let is_static = l.get("static").and_then(Json::as_bool).unwrap_or(false);
            let placement = match l.get("placement") {
                Some(p) => Some(PlacementSpec {
                    x: want_str(p, "x", "placement")?,
                    y: want_str(p, "y", "placement")?,
                    width: opt_string(p, "width").unwrap_or_else(|| "1".into()),
                    height: opt_string(p, "height").unwrap_or_else(|| "1".into()),
                }),
                None => None,
            };
            let rendering = render_from_json(
                l.get("rendering")
                    .ok_or_else(|| CoreError::Json("layer: missing rendering".into()))?,
            )?;
            let plan_hint =
                match l.get("plan_hint") {
                    None => None,
                    Some(v) => {
                        let name = v.as_str().ok_or_else(|| {
                            CoreError::Json("layer: plan_hint must be a string".into())
                        })?;
                        Some(PlanHint::from_name(name).ok_or_else(|| {
                            CoreError::Json(format!("layer: bad plan_hint `{name}`"))
                        })?)
                    }
                };
            canvas.layers.push(LayerSpec {
                transform,
                is_static,
                placement,
                rendering,
                plan_hint,
            });
        }
        spec.canvases.push(canvas);
    }
    for jj in j.get("jumps").and_then(Json::as_arr).unwrap_or(&[]) {
        let id = want_str(jj, "id", "jump")?;
        let type_name = want_str(jj, "type", &id)?;
        let jump_type = JumpType::from_name(&type_name)
            .ok_or_else(|| CoreError::Json(format!("jump `{id}`: bad type `{type_name}`")))?;
        spec.jumps.push(JumpSpec {
            id: id.clone(),
            from: want_str(jj, "from", &id)?,
            to: want_str(jj, "to", &id)?,
            jump_type,
            selector: opt_string(jj, "selector"),
            viewport_x: opt_string(jj, "viewport_x"),
            viewport_y: opt_string(jj, "viewport_y"),
            name: opt_string(jj, "name"),
        });
    }
    Ok(spec)
}

fn jump_to_json(j: &JumpSpec) -> Json {
    obj(vec![
        ("id", s(&j.id)),
        ("from", s(&j.from)),
        ("to", s(&j.to)),
        ("type", s(j.jump_type.name())),
        ("selector", opt_str(&j.selector)),
        ("viewport_x", opt_str(&j.viewport_x)),
        ("viewport_y", opt_str(&j.viewport_y)),
        ("name", opt_str(&j.name)),
    ])
}

fn render_from_json(j: &Json) -> Result<RenderSpec> {
    match j.get("kind").and_then(Json::as_str) {
        Some("marks") => {
            let mark_name = want_str(j, "mark", "rendering")?;
            let mark = MarkType::from_name(&mark_name)
                .ok_or_else(|| CoreError::Json(format!("bad mark type `{mark_name}`")))?;
            let color = match j.get("color") {
                Some(c) => {
                    let ramp_name = want_str(c, "ramp", "color")?;
                    Some(ColorEncoding {
                        field: want_str(c, "field", "color")?,
                        d0: want_num(c, "d0", "color")?,
                        d1: want_num(c, "d1", "color")?,
                        ramp: RampKind::from_name(&ramp_name)
                            .ok_or_else(|| CoreError::Json(format!("bad ramp `{ramp_name}`")))?,
                    })
                }
                None => None,
            };
            Ok(RenderSpec::Marks(MarkEncoding {
                mark,
                size: opt_string(j, "size").unwrap_or_else(|| "2".into()),
                fill: opt_string(j, "fill").unwrap_or_else(|| "#4682b4".into()),
                color,
                stroke: opt_string(j, "stroke"),
                label: opt_string(j, "label"),
            }))
        }
        Some("static") => {
            let mut marks = Vec::new();
            for m in j.get("marks").and_then(Json::as_arr).unwrap_or(&[]) {
                marks.push(mark_from_json(m)?);
            }
            Ok(RenderSpec::Static(marks))
        }
        other => Err(CoreError::Json(format!(
            "rendering: bad kind {other:?} (want \"marks\" or \"static\")"
        ))),
    }
}

fn parse_color(j: &Json, key: &str) -> Result<Option<Color>> {
    match j.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Str(hex)) => Color::from_hex(hex)
            .map(Some)
            .ok_or_else(|| CoreError::Json(format!("bad color `{hex}`"))),
        Some(other) => Err(CoreError::Json(format!("bad color value {other:?}"))),
    }
}

fn mark_from_json(j: &Json) -> Result<Mark> {
    let kind = want_str(j, "mark", "static mark")?;
    let fill = parse_color(j, "fill")?.unwrap_or(Color::GRAY);
    let stroke = parse_color(j, "stroke")?;
    Ok(match kind.as_str() {
        "circle" => Mark::Circle {
            cx: want_num(j, "cx", "circle")?,
            cy: want_num(j, "cy", "circle")?,
            r: want_num(j, "r", "circle")?,
            fill,
            stroke,
        },
        "rect" => Mark::Rect {
            x: want_num(j, "x", "rect")?,
            y: want_num(j, "y", "rect")?,
            w: want_num(j, "w", "rect")?,
            h: want_num(j, "h", "rect")?,
            fill,
            stroke,
        },
        "line" => Mark::Line {
            x0: want_num(j, "x0", "line")?,
            y0: want_num(j, "y0", "line")?,
            x1: want_num(j, "x1", "line")?,
            y1: want_num(j, "y1", "line")?,
            color: parse_color(j, "color")?.unwrap_or(Color::BLACK),
        },
        "polygon" => {
            let flat = j
                .get("points")
                .and_then(Json::as_arr)
                .ok_or_else(|| CoreError::Json("polygon: missing points".into()))?;
            if flat.len() % 2 != 0 {
                return Err(CoreError::Json("polygon: odd point list".into()));
            }
            let points = flat
                .chunks_exact(2)
                .map(|p| {
                    Ok((
                        p[0].as_f64()
                            .ok_or_else(|| CoreError::Json("polygon: bad coord".into()))?,
                        p[1].as_f64()
                            .ok_or_else(|| CoreError::Json("polygon: bad coord".into()))?,
                    ))
                })
                .collect::<Result<Vec<_>>>()?;
            Mark::Polygon {
                points,
                fill,
                stroke,
            }
        }
        "text" => Mark::Text {
            x: want_num(j, "x", "text")?,
            y: want_num(j, "y", "text")?,
            text: want_str(j, "text", "text")?,
            color: parse_color(j, "color")?.unwrap_or(Color::BLACK),
            size: want_num(j, "size", "text").unwrap_or(1.0) as u8,
        },
        other => return Err(CoreError::Json(format!("bad mark `{other}`"))),
    })
}

// keep BTreeMap import meaningful if unused elsewhere
#[allow(unused)]
type _Unused = BTreeMap<String, ()>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render_spec::MarkEncoding;

    #[test]
    fn json_value_roundtrip() {
        let src = r#"{"a": [1, 2.5, -3e2], "b": "hi\nthere", "c": null, "d": {"x": true}}"#;
        let v = parse_json(src).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().as_str().unwrap(), "hi\nthere");
        assert_eq!(v.get("c"), Some(&Json::Null));
        let pretty = parse_json(&v.to_string_pretty()).unwrap();
        assert_eq!(pretty, v);
    }

    #[test]
    fn json_errors() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("tru").is_err());
        assert!(parse_json(r#"{"a": 1} extra"#).is_err());
        assert!(parse_json(r#""unterminated"#).is_err());
    }

    /// `n` arrays, or `n` objects, each nested in the one before.
    fn nested(n: usize, objects: bool) -> String {
        if objects {
            format!(r#"{}null{}"#, r#"{"a":"#.repeat(n), "}".repeat(n))
        } else {
            format!("{}{}", "[".repeat(n), "]".repeat(n))
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        // a 1 MiB stack, half the spawn default: the refusal must come
        // before the recursion runs out of it, in either build profile
        let results = std::thread::Builder::new()
            .stack_size(1 << 20)
            .spawn(|| {
                [false, true]
                    .map(|objects| [256, 257, 1_000_000].map(|n| parse_json(&nested(n, objects))))
            })
            .unwrap()
            .join()
            .unwrap();
        for (objects, [at_limit, past, deep]) in [false, true].into_iter().zip(results) {
            at_limit.unwrap();
            // the first value past the limit starts at byte 256 x its opener
            let opener = if objects { 5 } else { 1 };
            let want = format!("nesting deeper than 256 at byte {}", 256 * opener);
            for r in [past, deep] {
                assert!(matches!(&r, Err(CoreError::Json(m)) if *m == want), "{r:?}");
            }
        }
    }

    #[test]
    fn unicode_escapes() {
        let v = parse_json(r#""café""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "café");
    }

    fn sample_spec() -> AppSpec {
        AppSpec::new("usmap")
            .add_transform(TransformSpec::query("t", "SELECT * FROM states").derive("cx", "x * 5"))
            .add_transform(TransformSpec::empty("empty"))
            .add_canvas(
                CanvasSpec::new("statemap", 2000.0, 1000.0)
                    .layer(LayerSpec::fixed(
                        "empty",
                        RenderSpec::Static(vec![
                            Mark::Rect {
                                x: 10.0,
                                y: 10.0,
                                w: 100.0,
                                h: 20.0,
                                fill: Color::WHITE,
                                stroke: Some(Color::BLACK),
                            },
                            Mark::Text {
                                x: 14.0,
                                y: 14.0,
                                text: "CRIME RATE".into(),
                                color: Color::BLACK,
                                size: 1,
                            },
                        ]),
                    ))
                    .layer(
                        LayerSpec::dynamic(
                            "t",
                            PlacementSpec::point("cx", "y"),
                            RenderSpec::Marks(
                                MarkEncoding::rect()
                                    .with_color("rate", 0.0, 100.0, RampKind::Heat)
                                    .with_label("name"),
                            ),
                        )
                        .with_plan_hint(crate::canvas::PlanHint::DynamicBox),
                    ),
            )
            .add_jump(
                JumpSpec::new("z", "statemap", "statemap", JumpType::GeometricZoom)
                    .with_selector("layer_id == 1"),
            )
            .initial("statemap", 1000.0, 500.0)
            .viewport(800.0, 600.0)
    }

    #[test]
    fn spec_roundtrips_through_json() {
        let spec = sample_spec();
        let json = spec_to_json(&spec);
        let text = json.to_string_pretty();
        let back = spec_from_json_str(&text).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn spec_from_json_reports_shape_errors() {
        assert!(spec_from_json_str(r#"{"noname": 1}"#).is_err());
        assert!(spec_from_json_str(
            r#"{"name":"x","jumps":[{"id":"j","from":"a","to":"b","type":"warp"}]}"#
        )
        .is_err());
        // plan_hint: bad name and non-string shape both fail loudly
        let layer = r#"{"transform":"t","rendering":{"kind":"static","marks":[]}"#;
        for hint in [r#""tilez""#, r#"["tiles"]"#, "true"] {
            let doc = format!(
                r#"{{"name":"x","canvases":[{{"id":"c","width":1,"height":1,
                     "layers":[{layer},"plan_hint":{hint}}}]}}]}}"#
            );
            assert!(spec_from_json_str(&doc).is_err(), "hint {hint} accepted");
        }
    }
}
