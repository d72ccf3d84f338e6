//! The one request schema behind both front ends: `tiscc estimate` and
//! `tiscc frontier` flags, and `tiscc serve` JSON fields.
//!
//! A setting has one name in both. A serve key is its CLI flag spelt with
//! `_` for `-` (`p_phys` is `--p-phys`), except that the profile list is
//! `profiles` in JSON and `--profile` on the command line; a `layout` or
//! `layouts` entry is `name[@RxC]` in both. A front end supplies only a
//! [`Params`] reader: the CLI's `(flag, text)` pairs, or serve's parsed
//! fields, which keep their JSON types. The parsers and the defaults
//! ([`ProgramEstimateSpec::default`], [`FrontierSpec::new`],
//! [`ErrorModel::default`]) live here, so one request yields one spec
//! whichever front end it came through.

use std::path::Path;

use tiscc_estimator::program::ProgramEstimateSpec;
use tiscc_hw::HardwareSpec;
use tiscc_program::{ErrorModel, LayoutSpec, LogicalProgram};
use tiscc_telemetry::json::Value;
use tiscc_telemetry::Span;

use crate::spec::FrontierSpec;

/// A request's settings as one front end holds them, looked up by schema
/// name (`budget`, `p_phys`, `profiles`). A getter returns `None` for a
/// setting the request leaves out; a value of the wrong type is an error
/// naming the setting as the front end spells it.
pub trait Params {
    /// The setting as text.
    fn text(&self, key: &str) -> Result<Option<&str>, String>;
    /// The setting as a number.
    fn number(&self, key: &str) -> Result<Option<f64>, String>;
    /// The setting as a non-negative integer.
    fn count(&self, key: &str) -> Result<Option<usize>, String>;
    /// How the front end spells `key` in a message: `--p-phys` or
    /// `"p_phys"`.
    fn name(&self, key: &str) -> String;

    /// [`Params::count`], `default` when unset; a count below `min` is an
    /// error naming the setting.
    fn count_at_least(&self, key: &str, default: usize, min: usize) -> Result<usize, String> {
        let value = self.count(key)?.unwrap_or(default);
        if value < min {
            return Err(format!("{} must be at least {min}, got {value}", self.name(key)));
        }
        Ok(value)
    }
}

/// Command-line flags as `(flag, value)` pairs: every value is text.
impl Params for [(String, String)] {
    fn text(&self, key: &str) -> Result<Option<&str>, String> {
        let flag = flag(key);
        Ok(self.iter().find(|(name, _)| *name == flag).map(|(_, value)| value.as_str()))
    }

    fn number(&self, key: &str) -> Result<Option<f64>, String> {
        parse_flag(self, key)
    }

    fn count(&self, key: &str) -> Result<Option<usize>, String> {
        parse_flag(self, key)
    }

    fn name(&self, key: &str) -> String {
        format!("--{}", flag(key))
    }
}

/// The CLI flag, without its `--`, that spells a schema setting.
fn flag(key: &str) -> String {
    if key == "profiles" {
        "profile".to_string()
    } else {
        key.replace('_', "-")
    }
}

fn parse_flag<T: std::str::FromStr>(
    flags: &[(String, String)],
    key: &str,
) -> Result<Option<T>, String> {
    let Some(value) = flags.text(key)? else { return Ok(None) };
    value
        .parse()
        .map(Some)
        .map_err(|_| format!("{} expects a number, got {value:?}", flags.name(key)))
}

/// Serve request fields: values keep their JSON types, so a number where
/// text belongs (or the reverse) is an error.
impl Params for [(String, Value)] {
    fn text(&self, key: &str) -> Result<Option<&str>, String> {
        match self.iter().find(|(k, _)| k == key).map(|(_, v)| v) {
            None => Ok(None),
            Some(Value::Str(s)) => Ok(Some(s)),
            Some(_) => Err(format!("{key:?} must be a string")),
        }
    }

    fn number(&self, key: &str) -> Result<Option<f64>, String> {
        match self.iter().find(|(k, _)| k == key).map(|(_, v)| v) {
            None => Ok(None),
            Some(Value::Num(x)) => Ok(Some(*x)),
            Some(_) => Err(format!("{key:?} must be a number")),
        }
    }

    fn count(&self, key: &str) -> Result<Option<usize>, String> {
        match self.number(key)? {
            Some(x) if x.fract() != 0.0 || x < 0.0 || x > usize::MAX as f64 => {
                Err(format!("{key:?} must be a non-negative integer"))
            }
            x => Ok(x.map(|x| x as usize)),
        }
    }

    fn name(&self, key: &str) -> String {
        format!("{key:?}")
    }
}

/// An estimate request: `budget`, `dmax`, `profiles`, the error model,
/// `layout` (one `name[@RxC]` entry, whose grid `grid` overrides) and
/// `simd_width` (applied to every profile), each over
/// [`ProgramEstimateSpec::default`].
pub fn estimate_spec(p: &(impl Params + ?Sized)) -> Result<ProgramEstimateSpec, String> {
    let default = ProgramEstimateSpec::default();
    let mut layout = match p.text("layout")? {
        Some(entry) => parse_layout_entry(entry)?,
        None => default.layout,
    };
    if let Some(grid) = p.text("grid")? {
        let (rows, cols) = parse_grid(&p.name("grid"), grid)?;
        layout = layout.with_grid(rows, cols);
    }
    let mut profiles = profiles(p)?.unwrap_or(default.profiles);
    if let Some(width) = simd_width(p)? {
        for profile in &mut profiles {
            profile.simd_width = width;
        }
    }
    Ok(ProgramEstimateSpec {
        budget: p.number("budget")?.unwrap_or(default.budget),
        model: model(p)?,
        profiles,
        d_max: p.count("dmax")?.unwrap_or(default.d_max),
        layout,
    })
}

/// A frontier request: `layouts` (`name[@RxC]` entries; each one without
/// a grid is crossed with every `grids` entry), `dmin`, `dmax`,
/// `profiles` and the error model, each over [`FrontierSpec::new`] on the
/// estimate defaults' layout and profiles.
pub fn frontier_spec(p: &(impl Params + ?Sized)) -> Result<FrontierSpec, String> {
    let estimate = ProgramEstimateSpec::default();
    let entries = match p.text("layouts")? {
        Some(raw) => split_list(&p.name("layouts"), raw)?
            .iter()
            .map(|entry| parse_layout_entry(entry))
            .collect::<Result<Vec<_>, _>>()?,
        None => vec![estimate.layout],
    };
    let grids = match p.text("grids")? {
        Some(raw) => split_list(&p.name("grids"), raw)?
            .iter()
            .map(|grid| parse_grid(&p.name("grids"), grid))
            .collect::<Result<Vec<_>, _>>()?,
        None => Vec::new(),
    };
    let mut layouts = Vec::new();
    for layout in entries {
        if layout.grid.is_some() || grids.is_empty() {
            layouts.push(layout);
        } else {
            layouts.extend(grids.iter().map(|&(rows, cols)| layout.with_grid(rows, cols)));
        }
    }
    let default = FrontierSpec::new(layouts, profiles(p)?.unwrap_or(estimate.profiles));
    Ok(FrontierSpec {
        d_min: p.count("dmin")?.unwrap_or(default.d_min),
        d_max: p.count("dmax")?.unwrap_or(default.d_max),
        model: model(p)?,
        ..default
    })
}

/// The `profiles` setting: a comma-separated list of hardware profile
/// names, deduplicated; `None` when unset.
pub fn profiles(p: &(impl Params + ?Sized)) -> Result<Option<Vec<HardwareSpec>>, String> {
    let Some(raw) = p.text("profiles")? else { return Ok(None) };
    split_list(&p.name("profiles"), raw)?
        .iter()
        .map(|name| HardwareSpec::by_name(name).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()
        .map(Some)
}

/// The `simd_width` setting, at least 1 (a width-0 batch would merge
/// nothing and is always a typo); `None` when unset.
pub fn simd_width(p: &(impl Params + ?Sized)) -> Result<Option<usize>, String> {
    match p.count("simd_width")? {
        Some(0) => Err(format!("{} must be at least 1", p.name("simd_width"))),
        width => Ok(width),
    }
}

/// The `p_phys`, `p_th` and `prefactor` settings over
/// [`ErrorModel::default`].
fn model(p: &(impl Params + ?Sized)) -> Result<ErrorModel, String> {
    let default = ErrorModel::default();
    Ok(ErrorModel {
        p_physical: p.number("p_phys")?.unwrap_or(default.p_physical),
        p_threshold: p.number("p_th")?.unwrap_or(default.p_threshold),
        prefactor: p.number("prefactor")?.unwrap_or(default.prefactor),
    })
}

/// Reads and parses the `.tql` program at `path` under a `parse` child of
/// `parent`; an unreadable or unparseable file is an error naming the
/// path.
pub fn load_program(path: &str, parent: &Span) -> Result<LogicalProgram, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let stem = Path::new(path)
        .file_stem()
        .map_or_else(|| "program".to_string(), |s| s.to_string_lossy().into_owned());
    LogicalProgram::parse_with(stem, &text, parent).map_err(|e| format!("{path}:{e}"))
}

/// Splits a comma-separated list field: entries are trimmed, empties
/// dropped, and duplicates removed (first occurrence wins). An
/// effectively empty list is an error naming the field.
fn split_list(name: &str, raw: &str) -> Result<Vec<String>, String> {
    let mut out: Vec<String> = Vec::new();
    for entry in raw.split(',') {
        let entry = entry.trim();
        if !entry.is_empty() && !out.iter().any(|e| e == entry) {
            out.push(entry.to_string());
        }
    }
    if out.is_empty() {
        return Err(format!("{name} list is empty (got {raw:?})"));
    }
    Ok(out)
}

/// Parses a `ROWSxCOLS` tile grid (e.g. `8x8`); `name` names the setting
/// in the error.
fn parse_grid(name: &str, value: &str) -> Result<(usize, usize), String> {
    let bad = || format!("{name} expects ROWSxCOLS (e.g. 8x8), got {value:?}");
    let (rows, cols) = value.split_once(['x', 'X']).ok_or_else(bad)?;
    let rows: usize = rows.trim().parse().map_err(|_| bad())?;
    let cols: usize = cols.trim().parse().map_err(|_| bad())?;
    if rows == 0 || cols == 0 {
        return Err(bad());
    }
    Ok((rows, cols))
}

/// Parses one layout entry: a strategy name, optionally suffixed with an
/// explicit grid as `name@RxC` (e.g. `checkerboard@8x8`).
fn parse_layout_entry(entry: &str) -> Result<LayoutSpec, String> {
    let (name, grid) = match entry.split_once('@') {
        Some((name, grid)) => (name, Some(grid)),
        None => (entry, None),
    };
    let layout = LayoutSpec::by_name(name).map_err(|e| e.to_string())?;
    match grid {
        Some(grid) => {
            let (rows, cols) = parse_grid(&format!("layout {entry:?}"), grid)?;
            Ok(layout.with_grid(rows, cols))
        }
        None => Ok(layout),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_list_dedupes_and_rejects_empty() {
        assert_eq!(split_list("profiles", "a,b,a").unwrap(), vec!["a", "b"]);
        assert_eq!(split_list("layouts", " x , ,x,").unwrap(), vec!["x"]);
        let err = split_list("profiles", ", ,").unwrap_err();
        assert!(err.contains("profiles list is empty"), "{err}");
    }

    #[test]
    fn layout_entries_parse_with_optional_grids() {
        assert_eq!(parse_layout_entry("lane").unwrap(), LayoutSpec::single_lane());
        assert_eq!(
            parse_layout_entry("checkerboard@8x8").unwrap(),
            LayoutSpec::checkerboard().with_grid(8, 8)
        );
        assert!(parse_layout_entry("warp").is_err());
        assert!(parse_layout_entry("row@8").is_err());
        assert!(parse_layout_entry("row@0x8").is_err());
    }
}
