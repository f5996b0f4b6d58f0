//! Engine counters over a measurement window: the timed phase only,
//! without the volume prefill that precedes it.

use adapt_lss::LssMetrics;

macro_rules! window {
    ($($field:ident),+ $(,)?) => {
        /// The [`LssMetrics`] counters the benchmark reports, as a
        /// difference of two snapshots (or a sum of such differences).
        #[derive(Debug, Clone, Copy, Default, PartialEq)]
        pub struct Window {
            $(pub $field: u64,)+
        }

        impl Window {
            /// Counters accumulated between `before` and `self`.
            pub fn since(&self, before: &Window) -> Self {
                Self { $($field: self.$field - before.$field,)+ }
            }

            /// Field-wise sum: the counters of two disjoint windows.
            pub fn plus(&self, other: &Window) -> Self {
                Self { $($field: self.$field + other.$field,)+ }
            }
        }
    };
}

window!(
    host_write_bytes,
    physical_bytes,
    pad_bytes,
    chunks_flushed,
    padded_chunks,
    gc_passes,
    segments_reclaimed,
    blocks_migrated,
    buffer_absorbed_blocks,
    shadow_append_events,
    lazy_appends,
    host_read_bytes,
    array_read_bytes,
    buffer_read_blocks,
    // Durability-latency histogram sum and sample count (µs).
    durability_sum_us,
    durability_count,
);

impl Window {
    /// Snapshot the cumulative counters of `m`.
    pub fn of(m: &LssMetrics) -> Self {
        let d = &m.durability_latency;
        Self {
            host_write_bytes: m.host_write_bytes,
            physical_bytes: m.physical_bytes(),
            pad_bytes: m.pad_bytes,
            chunks_flushed: m.chunks_flushed,
            padded_chunks: m.padded_chunks,
            gc_passes: m.gc_passes,
            segments_reclaimed: m.segments_reclaimed,
            blocks_migrated: m.blocks_migrated,
            buffer_absorbed_blocks: m.buffer_absorbed_blocks,
            shadow_append_events: m.shadow_append_events,
            lazy_appends: m.lazy_appends,
            host_read_bytes: m.host_read_bytes,
            array_read_bytes: m.array_read_bytes,
            buffer_read_blocks: m.buffer_read_blocks,
            // The histogram keeps an integer sum; mean × count restores it.
            durability_sum_us: (d.mean_us() * d.count() as f64).round() as u64,
            durability_count: d.count(),
        }
    }

    /// Physical bytes including padding ÷ host write bytes
    /// (`LssMetrics::wa`).
    pub fn wa(&self) -> f64 {
        ratio(self.physical_bytes, self.host_write_bytes)
    }

    /// Padding share of physical bytes (`LssMetrics::padding_ratio`).
    pub fn pad_ratio(&self) -> f64 {
        ratio(self.pad_bytes, self.physical_bytes)
    }

    /// Array bytes fetched per host byte read
    /// (`LssMetrics::read_amplification`).
    pub fn read_amp(&self) -> f64 {
        ratio(self.array_read_bytes, self.host_read_bytes)
    }

    /// Mean host-write → chunk-flush latency on the engine clock, µs.
    pub fn durability_mean_us(&self) -> f64 {
        ratio(self.durability_sum_us, self.durability_count)
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
