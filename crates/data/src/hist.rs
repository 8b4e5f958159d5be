//! Histogram / group-by computation over selections.
//!
//! A histogram *is* the visualization of the paper's Figure 1, and the
//! paper's heuristics turn histograms into hypotheses:
//!
//! * rule 2 compares a filtered histogram against the unfiltered one
//!   (χ² goodness-of-fit), and
//! * rule 3 compares two histograms under negated filters
//!   (χ² independence on the 2×k count table).
//!
//! For those tests to be well-formed the bucket universes must align, so
//! buckets are always derived from the *full* column — the categorical
//! dictionary, the bool domain, or fixed-width numeric bins over the full
//! column range — never from the selection. A filtered histogram therefore
//! reports zero counts for categories the selection misses.

use crate::bitmap::Bitmap;
use crate::column::Column;
use crate::table::Table;
use crate::{DataError, Result};

/// One histogram bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct Bucket {
    /// Human-readable bucket label (category name or bin range).
    pub label: String,
    /// Number of selected rows in this bucket.
    pub count: u64,
}

/// A histogram of one column under a selection.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// The column the histogram is over.
    pub column: String,
    /// Buckets in a canonical order (dictionary order for categoricals,
    /// `false`/`true` for bools, ascending bins for numerics).
    pub buckets: Vec<Bucket>,
}

impl Histogram {
    /// Counts in bucket order.
    pub fn counts(&self) -> Vec<u64> {
        self.buckets.iter().map(|b| b.count).collect()
    }

    /// Total count across buckets.
    pub fn total(&self) -> u64 {
        self.buckets.iter().map(|b| b.count).sum()
    }

    /// Bucket proportions; an all-zero histogram yields all-zero proportions.
    pub fn proportions(&self) -> Vec<f64> {
        let total = self.total();
        if total == 0 {
            return vec![0.0; self.buckets.len()];
        }
        self.buckets
            .iter()
            .map(|b| b.count as f64 / total as f64)
            .collect()
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }
}

/// Default bin count for numeric histograms, matching the visual default of
/// IDE tools (Vizdom renders ~10 bars).
pub const DEFAULT_NUMERIC_BINS: usize = 10;

/// Bucket counting over an optional selection: the shared word-at-a-time
/// kernel behind every histogram (and, with a flattened bucket space,
/// the crosstab).
///
/// * no selection → one tight full-column loop;
/// * selection covering ≤ ½ the rows → walk set bits per word;
/// * selection covering > ½ the rows → count the *complement* against the
///   full-column counts and subtract — the walked bit count is always
///   min(|sel|, n−|sel|). `full`, when given, is those full-column counts
///   already known (memoized by the evaluation cache), so this case never
///   rescans the column; without it they are recounted.
pub(crate) fn count_selected(
    rows: usize,
    buckets: usize,
    selection: Option<&Bitmap>,
    full: Option<&[u64]>,
    bucket_of: impl Fn(usize) -> usize,
) -> Vec<u64> {
    let count_all = || {
        let mut counts = vec![0u64; buckets];
        for i in 0..rows {
            counts[bucket_of(i)] += 1;
        }
        counts
    };
    match selection {
        None => count_all(),
        Some(sel) if 2 * sel.count_ones() > rows => {
            let mut counts = match full {
                Some(full) => {
                    debug_assert_eq!(full.len(), buckets, "full counts over other buckets");
                    full.to_vec()
                }
                None => count_all(),
            };
            sel.for_each_clear(|i| counts[bucket_of(i)] -= 1);
            counts
        }
        Some(sel) => {
            let mut counts = vec![0u64; buckets];
            sel.for_each_set(|i| counts[bucket_of(i)] += 1);
            counts
        }
    }
}

/// Computes the histogram of `column` over `selection` (or all rows).
///
/// Categorical and bool columns bucket by value; numeric columns use
/// [`DEFAULT_NUMERIC_BINS`] fixed-width bins over the full column range.
pub fn histogram(table: &Table, column: &str, selection: Option<&Bitmap>) -> Result<Histogram> {
    match table.column(column)? {
        Column::Int64(_) | Column::Float64(_) => {
            numeric_histogram(table, column, selection, DEFAULT_NUMERIC_BINS)
        }
        _ => categorical_histogram(table, column, selection),
    }
}

/// Histogram for categorical / bool columns: one bucket per domain value.
pub fn categorical_histogram(
    table: &Table,
    column: &str,
    selection: Option<&Bitmap>,
) -> Result<Histogram> {
    categorical_histogram_from(table, column, selection, None)
}

/// [`categorical_histogram`], given the column's unfiltered counts when
/// they are known (see [`count_selected`]).
pub(crate) fn categorical_histogram_from(
    table: &Table,
    column: &str,
    selection: Option<&Bitmap>,
    full: Option<&[u64]>,
) -> Result<Histogram> {
    if let Some(sel) = selection {
        table.check_selection(sel)?;
    }
    let col = table.column(column)?;
    match col {
        Column::Categorical { labels, codes } => {
            let counts = count_selected(codes.len(), labels.len(), selection, full, |i| {
                codes[i] as usize
            });
            Ok(Histogram {
                column: column.to_owned(),
                buckets: labels
                    .iter()
                    .zip(counts)
                    .map(|(l, count)| Bucket {
                        label: l.clone(),
                        count,
                    })
                    .collect(),
            })
        }
        Column::Bool(values) => {
            let counts = count_selected(values.len(), 2, selection, full, |i| values[i] as usize);
            Ok(Histogram {
                column: column.to_owned(),
                buckets: vec![
                    Bucket {
                        label: "false".into(),
                        count: counts[0],
                    },
                    Bucket {
                        label: "true".into(),
                        count: counts[1],
                    },
                ],
            })
        }
        other => Err(DataError::TypeMismatch {
            column: column.to_owned(),
            expected: "categorical or bool",
            actual: other.column_type().name(),
        }),
    }
}

/// Histogram for numeric columns with `bins` fixed-width bins spanning the
/// full column's `[min, max]` (so histograms of different selections align).
pub fn numeric_histogram(
    table: &Table,
    column: &str,
    selection: Option<&Bitmap>,
    bins: usize,
) -> Result<Histogram> {
    if bins == 0 {
        return Err(DataError::InvalidArgument {
            context: "numeric_histogram",
            constraint: "bins >= 1",
        });
    }
    if let Some(sel) = selection {
        table.check_selection(sel)?;
    }
    let bounds = numeric_bounds(table, column)?;
    numeric_histogram_with_bounds(table, column, selection, bins, bounds)
}

/// Full-column `(min, max)` of a numeric column — the per-dataset
/// invariant bin edges derive from. Memoized by the evaluation cache so
/// repeated histograms of one attribute never rescan for it.
pub fn numeric_bounds(table: &Table, column: &str) -> Result<(f64, f64)> {
    let col = table.column(column)?;
    if table.rows() == 0 {
        return Err(DataError::Empty {
            context: "numeric_histogram",
        });
    }
    // Sequential fold, same order as the counting scan, so cached and
    // cold paths agree bit-for-bit on the edges.
    let fold = |it: &mut dyn Iterator<Item = f64>| {
        it.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
            (lo.min(v), hi.max(v))
        })
    };
    match col {
        Column::Int64(v) => Ok(fold(&mut v.iter().map(|&x| x as f64))),
        Column::Float64(v) => Ok(fold(&mut v.iter().copied())),
        other => Err(DataError::TypeMismatch {
            column: column.to_owned(),
            expected: "numeric (int64/float64)",
            actual: other.column_type().name(),
        }),
    }
}

/// [`numeric_histogram`] with pre-computed full-column bounds (from
/// [`numeric_bounds`], possibly memoized): bin edges derive from the
/// bounds, counting runs word-at-a-time over the selection.
pub fn numeric_histogram_with_bounds(
    table: &Table,
    column: &str,
    selection: Option<&Bitmap>,
    bins: usize,
    bounds: (f64, f64),
) -> Result<Histogram> {
    numeric_histogram_from(table, column, selection, bins, bounds, None)
}

/// [`numeric_histogram_with_bounds`], given the column's unfiltered
/// counts under the same bins when they are known (see
/// [`count_selected`]).
pub(crate) fn numeric_histogram_from(
    table: &Table,
    column: &str,
    selection: Option<&Bitmap>,
    bins: usize,
    (min, max): (f64, f64),
    full: Option<&[u64]>,
) -> Result<Histogram> {
    if bins == 0 {
        return Err(DataError::InvalidArgument {
            context: "numeric_histogram",
            constraint: "bins >= 1",
        });
    }
    if let Some(sel) = selection {
        table.check_selection(sel)?;
    }
    let col = table.column(column)?;
    let n = table.rows();
    if n == 0 {
        return Err(DataError::Empty {
            context: "numeric_histogram",
        });
    }
    let width = if max > min {
        (max - min) / bins as f64
    } else {
        1.0
    };
    let bin_of = |v: f64| -> usize { (((v - min) / width) as usize).min(bins - 1) };
    let counts = match col {
        Column::Int64(v) => count_selected(n, bins, selection, full, |i| bin_of(v[i] as f64)),
        Column::Float64(v) => count_selected(n, bins, selection, full, |i| bin_of(v[i])),
        other => {
            return Err(DataError::TypeMismatch {
                column: column.to_owned(),
                expected: "numeric (int64/float64)",
                actual: other.column_type().name(),
            })
        }
    };
    Ok(Histogram {
        column: column.to_owned(),
        buckets: counts
            .into_iter()
            .enumerate()
            .map(|(b, count)| {
                let lo = min + b as f64 * width;
                let hi = lo + width;
                Bucket {
                    label: format!("[{lo:.3},{hi:.3})"),
                    count,
                }
            })
            .collect(),
    })
}

/// Stacks two aligned histograms into the 2×k contingency table consumed by
/// the χ² independence test (heuristic rule 3).
///
/// Errors if the histograms are over different columns or bucket universes.
pub fn contingency_rows(a: &Histogram, b: &Histogram) -> Result<Vec<Vec<u64>>> {
    if a.column != b.column || a.num_buckets() != b.num_buckets() {
        return Err(DataError::InvalidArgument {
            context: "contingency_rows",
            constraint: "histograms must share column and bucket universe",
        });
    }
    for (x, y) in a.buckets.iter().zip(&b.buckets) {
        if x.label != y.label {
            return Err(DataError::InvalidArgument {
                context: "contingency_rows",
                constraint: "bucket labels must align",
            });
        }
    }
    Ok(vec![a.counts(), b.counts()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::predicate::Predicate;
    use crate::table::TableBuilder;

    fn demo() -> Table {
        TableBuilder::new()
            .push(
                "sex",
                Column::categorical_from_strs(&["M", "F", "F", "M", "F", "M", "M", "F"]),
            )
            .push(
                "over_50k",
                Column::Bool(vec![true, false, false, true, true, false, true, false]),
            )
            .push("age", Column::Int64(vec![20, 30, 40, 50, 60, 70, 25, 35]))
            .build()
            .unwrap()
    }

    #[test]
    fn categorical_counts_full_table() {
        let t = demo();
        let h = histogram(&t, "sex", None).unwrap();
        assert_eq!(h.counts(), vec![4, 4]);
        assert_eq!(h.total(), 8);
        assert_eq!(h.proportions(), vec![0.5, 0.5]);
        assert_eq!(h.buckets[0].label, "M");
    }

    #[test]
    fn bool_histogram_false_then_true() {
        let t = demo();
        let h = histogram(&t, "over_50k", None).unwrap();
        assert_eq!(h.buckets[0].label, "false");
        assert_eq!(h.buckets[1].label, "true");
        assert_eq!(h.counts(), vec![4, 4]);
    }

    #[test]
    fn filtered_histogram_keeps_empty_buckets() {
        let t = demo();
        let sel = Predicate::eq("over_50k", true).eval(&t).unwrap();
        let h = histogram(&t, "sex", Some(&sel)).unwrap();
        // High earners: rows 0,3,4,6 → M,M,F,M.
        assert_eq!(h.counts(), vec![3, 1]);
        assert_eq!(h.total(), 4);
        // Selection that misses a category still reports it with count 0.
        let only_f = Predicate::eq("sex", "F").eval(&t).unwrap();
        let h = histogram(&t, "sex", Some(&only_f)).unwrap();
        assert_eq!(h.counts(), vec![0, 4]);
        assert_eq!(h.num_buckets(), 2);
    }

    #[test]
    fn numeric_bins_are_aligned_across_selections() {
        let t = demo();
        let all = numeric_histogram(&t, "age", None, 5).unwrap();
        assert_eq!(all.total(), 8);
        // age range [20,70], width 10: bins [20,30) [30,40) [40,50) [50,60) [60,70].
        assert_eq!(all.counts(), vec![2, 2, 1, 1, 2]);
        let sel = Predicate::eq("sex", "M").eval(&t).unwrap();
        let men = numeric_histogram(&t, "age", Some(&sel), 5).unwrap();
        // Bins identical; only counts differ: men ages 20,50,70,25.
        assert_eq!(men.counts(), vec![2, 0, 0, 1, 1]);
        for (a, b) in all.buckets.iter().zip(&men.buckets) {
            assert_eq!(a.label, b.label);
        }
        // Max value lands in the last bin, not out of range.
        assert_eq!(all.counts().iter().sum::<u64>(), 8);
    }

    #[test]
    fn numeric_histogram_constant_column() {
        let t = TableBuilder::new()
            .push("x", Column::Float64(vec![3.0; 7]))
            .build()
            .unwrap();
        let h = numeric_histogram(&t, "x", None, 4).unwrap();
        assert_eq!(h.total(), 7);
        assert_eq!(h.counts()[0], 7);
    }

    #[test]
    fn default_dispatch_by_type() {
        let t = demo();
        assert_eq!(
            histogram(&t, "age", None).unwrap().num_buckets(),
            DEFAULT_NUMERIC_BINS
        );
        assert_eq!(histogram(&t, "sex", None).unwrap().num_buckets(), 2);
    }

    #[test]
    fn error_paths() {
        let t = demo();
        assert!(histogram(&t, "ghost", None).is_err());
        assert!(categorical_histogram(&t, "age", None).is_err());
        assert!(numeric_histogram(&t, "sex", None, 4).is_err());
        assert!(numeric_histogram(&t, "age", None, 0).is_err());
        let wrong = Bitmap::zeros(3);
        assert!(histogram(&t, "sex", Some(&wrong)).is_err());
        assert!(numeric_histogram(&t, "age", Some(&wrong), 4).is_err());
    }

    #[test]
    fn contingency_rows_aligned() {
        let t = demo();
        let hi = Predicate::eq("over_50k", true).eval(&t).unwrap();
        let lo = hi.not();
        let a = histogram(&t, "sex", Some(&hi)).unwrap();
        let b = histogram(&t, "sex", Some(&lo)).unwrap();
        let table = contingency_rows(&a, &b).unwrap();
        assert_eq!(table, vec![vec![3, 1], vec![1, 3]]);
        // Mismatched columns rejected.
        let c = histogram(&t, "over_50k", None).unwrap();
        assert!(contingency_rows(&a, &c).is_err());
    }

    #[test]
    fn histogram_mass_conservation() {
        let t = demo();
        let sel = Predicate::between("age", 25.0, 60.0).eval(&t).unwrap();
        let h = histogram(&t, "sex", Some(&sel)).unwrap();
        assert_eq!(h.total(), sel.count_ones() as u64);
        let h = numeric_histogram(&t, "age", Some(&sel), 3).unwrap();
        assert_eq!(h.total(), sel.count_ones() as u64);
    }
}
