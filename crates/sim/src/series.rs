//! Time-series recording, used to regenerate the paper's figures.

use serde::{Deserialize, Serialize};

use crate::time::SimTime;

/// A named series of `(time, value)` samples in non-decreasing time order.
///
/// # Example
///
/// ```
/// use glacsweb_sim::{SimTime, TimeSeries};
///
/// let mut v = TimeSeries::new("battery_voltage");
/// v.push(SimTime::from_unix(0), 12.5);
/// v.push(SimTime::from_unix(1800), 12.6);
/// assert_eq!(v.len(), 2);
/// assert!((v.stats().mean - 12.55).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    name: String,
    points: Vec<(SimTime, f64)>,
}

/// Summary statistics of a [`TimeSeries`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SeriesStats {
    /// Number of samples.
    pub count: usize,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl TimeSeries {
    /// Creates an empty series with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Creates an empty series pre-sized for `capacity` samples.
    ///
    /// Recording loops that know their horizon (e.g. a deployment run of
    /// `n` days at half-hourly sampling) can avoid repeated reallocation.
    pub fn with_capacity(name: impl Into<String>, capacity: usize) -> Self {
        TimeSeries {
            name: name.into(),
            points: Vec::with_capacity(capacity),
        }
    }

    /// Reserves room for at least `additional` further samples.
    pub fn reserve(&mut self, additional: usize) {
        self.points.reserve(additional);
    }

    /// The series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a sample.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the last recorded sample — samples
    /// must arrive in simulation order.
    pub fn push(&mut self, time: SimTime, value: f64) {
        if let Some(&(last, _)) = self.points.last() {
            assert!(
                time >= last,
                "samples must be time-ordered: {time} < {last}"
            );
        }
        self.points.push((time, value));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Iterates over `(time, value)` samples.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.points.iter().copied()
    }

    /// The last sample, if any.
    pub fn last(&self) -> Option<(SimTime, f64)> {
        self.points.last().copied()
    }

    /// The value at or immediately before `time` (step interpolation).
    pub fn value_at(&self, time: SimTime) -> Option<f64> {
        match self.points.binary_search_by(|&(t, _)| t.cmp(&time)) {
            Ok(i) => Some(self.points[i].1),
            Err(0) => None,
            Err(i) => Some(self.points[i - 1].1),
        }
    }

    /// Summary statistics over all samples.
    ///
    /// # Panics
    ///
    /// Panics if the series is empty.
    pub fn stats(&self) -> SeriesStats {
        assert!(!self.points.is_empty(), "stats of an empty series");
        self.stats_of(self.points.iter().map(|&(_, v)| v))
    }

    /// Samples whose time lies in `[start, end)`.
    pub fn window(
        &self,
        start: SimTime,
        end: SimTime,
    ) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.points
            .iter()
            .copied()
            .skip_while(move |&(t, _)| t < start)
            .take_while(move |&(t, _)| t < end)
    }

    /// Ordinary least-squares slope of value against time (per second).
    ///
    /// # Panics
    ///
    /// Panics if the series has fewer than two samples.
    pub fn slope_per_sec(&self) -> f64 {
        assert!(self.points.len() >= 2, "slope needs at least two samples");
        let t0 = self.points[0].0.unix() as f64;
        let n = self.points.len() as f64;
        let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
        for &(t, v) in &self.points {
            let x = t.unix() as f64 - t0;
            sx += x;
            sy += v;
            sxx += x * x;
            sxy += x * v;
        }
        (n * sxy - sx * sy) / (n * sxx - sx * sx)
    }

    /// Pearson correlation between two aligned value slices.
    ///
    /// Returns 0 when either side has no variance.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length or are empty.
    pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
        assert!(
            !xs.is_empty() && xs.len() == ys.len(),
            "need aligned non-empty slices"
        );
        let n = xs.len() as f64;
        let mx = xs.iter().sum::<f64>() / n;
        let my = ys.iter().sum::<f64>() / n;
        let mut cov = 0.0;
        let mut vx = 0.0;
        let mut vy = 0.0;
        for (x, y) in xs.iter().zip(ys) {
            cov += (x - mx) * (y - my);
            vx += (x - mx).powi(2);
            vy += (y - my).powi(2);
        }
        let denom = (vx * vy).sqrt();
        if denom <= f64::EPSILON {
            0.0
        } else {
            cov / denom
        }
    }

    fn stats_of(&self, values: impl Iterator<Item = f64>) -> SeriesStats {
        let mut count = 0usize;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut sum = 0.0;
        for v in values {
            count += 1;
            min = min.min(v);
            max = max.max(v);
            sum += v;
        }
        SeriesStats {
            count,
            min,
            max,
            mean: sum / count as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_unix(secs)
    }

    #[test]
    fn records_and_summarizes() {
        let mut s = TimeSeries::new("v");
        for (i, v) in [12.0, 12.5, 13.0, 12.5].into_iter().enumerate() {
            s.push(t(i as u64 * 1800), v);
        }
        let st = s.stats();
        assert_eq!(st.count, 4);
        assert_eq!(st.min, 12.0);
        assert_eq!(st.max, 13.0);
        assert!((st.mean - 12.5).abs() < 1e-12);
        assert_eq!(s.name(), "v");
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn rejects_out_of_order() {
        let mut s = TimeSeries::new("v");
        s.push(t(100), 1.0);
        s.push(t(50), 2.0);
    }

    #[test]
    fn value_at_steps() {
        let mut s = TimeSeries::new("v");
        s.push(t(100), 1.0);
        s.push(t(200), 2.0);
        assert_eq!(s.value_at(t(50)), None);
        assert_eq!(s.value_at(t(100)), Some(1.0));
        assert_eq!(s.value_at(t(150)), Some(1.0));
        assert_eq!(s.value_at(t(200)), Some(2.0));
        assert_eq!(s.value_at(t(9999)), Some(2.0));
    }

    #[test]
    fn window_selects_half_open_range() {
        let mut s = TimeSeries::new("v");
        for i in 0..10u64 {
            s.push(t(i * 10), i as f64);
        }
        let w: Vec<_> = s.window(t(20), t(50)).collect();
        assert_eq!(w.len(), 3);
        assert_eq!(w[0], (t(20), 2.0));
        assert_eq!(w[2], (t(40), 4.0));
    }

    #[test]
    fn empty_series_behaviour() {
        let s = TimeSeries::new("v");
        assert!(s.is_empty());
        assert_eq!(s.last(), None);
    }

    #[test]
    fn slope_recovers_a_linear_trend() {
        let mut s = TimeSeries::new("v");
        for i in 0..100u64 {
            s.push(t(i * 10), 3.0 + 0.5 * i as f64);
        }
        // 0.5 per 10 seconds = 0.05/s.
        assert!((s.slope_per_sec() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn pearson_detects_correlation_sign() {
        let xs: Vec<f64> = (0..50).map(f64::from).collect();
        let ys_up: Vec<f64> = xs.iter().map(|x| 2.0 * x + 1.0).collect();
        let ys_down: Vec<f64> = xs.iter().map(|x| -x).collect();
        assert!((TimeSeries::pearson(&xs, &ys_up) - 1.0).abs() < 1e-12);
        assert!((TimeSeries::pearson(&xs, &ys_down) + 1.0).abs() < 1e-12);
        let flat = vec![5.0; 50];
        assert_eq!(TimeSeries::pearson(&xs, &flat), 0.0, "no variance -> 0");
    }

    #[test]
    #[should_panic(expected = "two samples")]
    fn slope_requires_two_points() {
        let mut s = TimeSeries::new("v");
        s.push(t(0), 1.0);
        let _ = s.slope_per_sec();
    }

    proptest! {
        /// Resampling never loses samples: bucket counts sum to the input.
        #[test]
        fn resample_preserves_mass(values in proptest::collection::vec(-100.0f64..100.0, 1..200)) {
            let mut s = TimeSeries::new("v");
            for (i, v) in values.iter().enumerate() {
                s.push(t(i as u64 * 7), *v);
            }
            let total_mean = values.iter().sum::<f64>() / values.len() as f64;
            let st = s.stats();
            prop_assert!((st.mean - total_mean).abs() < 1e-9);
            prop_assert!(st.min <= st.mean && st.mean <= st.max);
        }
    }
}
