//! Time-series and statistics substrate for the `mobilenet` workspace.
//!
//! The paper's analyses (CoNEXT 2017, "Not All Apps Are Created Equal") rest
//! on a handful of numerical kernels that in the original study were provided
//! by the Python scientific stack. This crate reimplements them from scratch:
//!
//! * [`complex`] — a minimal complex-number type used by the FFT.
//! * [`fft`] — an iterative radix-2 fast Fourier transform and the
//!   convolution / cross-correlation helpers built on it.
//! * [`norm`] — z-normalization and related scalings of series.
//! * [`sbd`] — the normalized cross-correlation coefficient (NCC-c) and the
//!   shape-based distance (SBD) of Paparrizos & Gravano's *k-Shape*
//!   (SIGMOD 2015), which the paper uses for time-series clustering.
//! * [`stats`] — descriptive statistics, Pearson correlation and the
//!   coefficient of determination, ordinary least squares, quantiles and
//!   empirical CDFs, cumulative-share (concentration) curves.
//! * [`zipf`] — rank–frequency (Zipf) exponent fitting used for Figure 2.
//!
//! All kernels operate on plain `&[f64]` slices so they stay decoupled from
//! how the rest of the workspace stores traffic data.
//!
//! # Example
//!
//! ```
//! use mobilenet_timeseries::sbd::shape_based_distance;
//!
//! let a = vec![0.0, 1.0, 2.0, 1.0, 0.0, 0.0, 0.0, 0.0];
//! // The same shape, shifted by two samples.
//! let b = vec![0.0, 0.0, 0.0, 1.0, 2.0, 1.0, 0.0, 0.0];
//! let d = shape_based_distance(&a, &b);
//! assert!(d < 1e-9, "SBD is shift-invariant: {d}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod complex;
pub mod fft;
pub mod norm;
pub mod sbd;
pub mod stats;
pub mod zipf;

pub use complex::Complex;
pub use sbd::{ncc_c, shape_based_distance};
