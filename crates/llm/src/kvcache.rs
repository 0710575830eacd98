//! Key/value cache for autoregressive decoding.
//!
//! Following the paper's methodology, the cached keys and values participate in dot
//! products (attention scores and attention-weighted sums) and are therefore quantized
//! with the same scheme as other dot-product operands.
//!
//! ## Row reads
//!
//! Rows are stored append-only in one contiguous row-major buffer per tensor, and the
//! read API serves borrowed `&[f32]` rows ([`LayerKvCache::key_row`]) straight from that
//! storage; nothing ever copies the whole cache.
//!
//! ## Backends
//!
//! The decode hot path is generic over a cache *backend* ([`KvBackend`]): this module's
//! [`KvCache`] stores dequantized `f32` rows (the accuracy / bit-exactness baseline),
//! while [`PagedKvCache`](crate::paging::PagedKvCache) stores rows genuinely bit-packed
//! in pool-allocated pages — exclusively owned, or refcounted-shared with other
//! sequences under prefix sharing (reads never care which; writes copy-on-write). Both
//! backends feed the attention loop through a per-layer [`KvLayerReader`].

use mx_formats::QuantScheme;
use serde::{Deserialize, Serialize};

/// The KV cache of one attention layer: keys and values appended token by token.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerKvCache {
    kv_dim: usize,
    keys: Vec<f32>,
    values: Vec<f32>,
    len: usize,
}

impl LayerKvCache {
    /// Creates an empty cache for keys/values of width `kv_dim`.
    #[must_use]
    pub fn new(kv_dim: usize) -> Self {
        LayerKvCache::with_capacity(kv_dim, 0)
    }

    /// Creates an empty cache with storage pre-reserved for `positions` tokens, so a
    /// serving loop with a known budget never reallocates (or moves) the row storage.
    #[must_use]
    pub fn with_capacity(kv_dim: usize, positions: usize) -> Self {
        LayerKvCache {
            kv_dim,
            keys: Vec::with_capacity(positions * kv_dim),
            values: Vec::with_capacity(positions * kv_dim),
            len: 0,
        }
    }

    /// Reserves storage for at least `additional` more positions.
    pub fn reserve(&mut self, additional: usize) {
        self.keys.reserve(additional * self.kv_dim);
        self.values.reserve(additional * self.kv_dim);
    }

    /// Number of cached positions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Key/value width.
    #[must_use]
    pub fn kv_dim(&self) -> usize {
        self.kv_dim
    }

    /// Appends one position's key and value rows, fake-quantized with `scheme`
    /// (the cache stores the quantized representation, as a real serving system would).
    /// Rows are quantized straight into the row storage: appends allocate only when the
    /// storage itself must grow.
    ///
    /// # Panics
    ///
    /// Panics if the rows do not have width `kv_dim`.
    pub fn append(&mut self, key: &[f32], value: &[f32], scheme: QuantScheme) {
        assert_eq!(key.len(), self.kv_dim, "key width mismatch");
        assert_eq!(value.len(), self.kv_dim, "value width mismatch");
        let start = self.len * self.kv_dim;
        let end = start + self.kv_dim;
        self.keys.resize(end, 0.0);
        scheme.quantize_dequantize_into(key, &mut self.keys[start..end]);
        self.values.resize(end, 0.0);
        scheme.quantize_dequantize_into(value, &mut self.values[start..end]);
        self.len += 1;
    }

    /// One cached key row, borrowed straight from the row storage (no copy).
    ///
    /// # Panics
    ///
    /// Panics if `t >= len`.
    #[must_use]
    pub fn key_row(&self, t: usize) -> &[f32] {
        assert!(t < self.len, "position out of bounds");
        &self.keys[t * self.kv_dim..(t + 1) * self.kv_dim]
    }

    /// One cached value row, borrowed straight from the row storage (no copy).
    ///
    /// # Panics
    ///
    /// Panics if `t >= len`.
    #[must_use]
    pub fn value_row(&self, t: usize) -> &[f32] {
        assert!(t < self.len, "position out of bounds");
        &self.values[t * self.kv_dim..(t + 1) * self.kv_dim]
    }

    /// Clears the cache (retaining storage).
    pub fn clear(&mut self) {
        self.keys.clear();
        self.values.clear();
        self.len = 0;
    }

    /// Storage in bytes if the cache were held in `scheme`, rounding each stored row up
    /// to whole bytes (rows are the allocation unit of the append-only layout, so partial
    /// trailing blocks cost a full byte per row rather than vanishing in a flattened
    /// average).
    #[must_use]
    pub fn storage_bytes(&self, scheme: QuantScheme) -> usize {
        2 * self.len * Self::row_storage_bytes(self.kv_dim, scheme)
    }

    /// Bytes of backing storage this cache has allocated for row data: this backend
    /// stores the *dequantized* rows, so the commitment is 4 bytes per element of
    /// reserved capacity regardless of the quantization scheme. Counting capacity (not
    /// just rows written) makes the number the allocation-granular analogue of the paged
    /// backend's page occupancy (contrast [`LayerKvCache::storage_bytes`], the
    /// theoretical scheme width of the rows written).
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        (self.keys.capacity() + self.values.capacity()) * std::mem::size_of::<f32>()
    }

    /// Bytes one stored row of width `kv_dim` occupies under `scheme` (ceiled per row).
    #[must_use]
    pub fn row_storage_bytes(kv_dim: usize, scheme: QuantScheme) -> usize {
        (kv_dim as f64 * scheme.average_bits_per_element() / 8.0).ceil() as usize
    }
}

/// KV caches for all layers of a model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KvCache {
    layers: Vec<LayerKvCache>,
}

impl KvCache {
    /// Creates empty caches for `layers` layers of key/value width `kv_dim`.
    #[must_use]
    pub fn new(layers: usize, kv_dim: usize) -> Self {
        KvCache::with_capacity(layers, kv_dim, 0)
    }

    /// Creates empty caches with per-layer storage pre-reserved for `positions` tokens.
    #[must_use]
    pub fn with_capacity(layers: usize, kv_dim: usize, positions: usize) -> Self {
        KvCache { layers: (0..layers).map(|_| LayerKvCache::with_capacity(kv_dim, positions)).collect() }
    }

    /// The cache of one layer.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    #[must_use]
    pub fn layer(&self, layer: usize) -> &LayerKvCache {
        &self.layers[layer]
    }

    /// Mutable access to one layer's cache.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub fn layer_mut(&mut self, layer: usize) -> &mut LayerKvCache {
        &mut self.layers[layer]
    }

    /// Number of layers.
    #[must_use]
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Sequence length currently cached (same for every layer).
    #[must_use]
    pub fn seq_len(&self) -> usize {
        self.layers.first().map_or(0, LayerKvCache::len)
    }

    /// Reserves storage for at least `additional` more positions in every layer
    /// (a cloned `Vec` keeps only `len` capacity, so clones that will keep decoding
    /// should re-reserve their headroom).
    pub fn reserve(&mut self, additional: usize) {
        for l in &mut self.layers {
            l.reserve(additional);
        }
    }

    /// Total storage in bytes across all layers if held in `scheme`
    /// (see [`LayerKvCache::storage_bytes`]).
    #[must_use]
    pub fn storage_bytes(&self, scheme: QuantScheme) -> usize {
        self.layers.iter().map(|l| l.storage_bytes(scheme)).sum()
    }

    /// Bytes of backing storage allocated for cache rows across all layers
    /// (see [`LayerKvCache::resident_bytes`]).
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.layers.iter().map(LayerKvCache::resident_bytes).sum()
    }

    /// Clears every layer.
    pub fn clear(&mut self) {
        for l in &mut self.layers {
            l.clear();
        }
    }
}

/// Row-level read access to one layer of a KV cache during attention.
///
/// The reader owns whatever per-read state the backend needs: the `f32` backend returns
/// borrowed slices straight into its contiguous row storage (zero work per read), while
/// the paged backend decodes the requested packed row into a reusable dequant scratch
/// buffer and returns that. Either way the returned slice is only guaranteed until the
/// next read, which is exactly the access pattern of the zero-copy attention loop
/// (each row is consumed before the next is requested).
pub trait KvLayerReader {
    /// The cached key row at position `t`.
    fn key_row(&mut self, t: usize) -> &[f32];
    /// The cached value row at position `t`.
    fn value_row(&mut self, t: usize) -> &[f32];

    /// Fused query·key scores against the key row at position `t`, computed straight
    /// from the backend's storage without materializing the row: for every query head
    /// `h`, folds `q[h*head_dim + d] * key[kv(h)*head_dim + d]` into `dots[h]` term by
    /// term (ascending `d`, GQA head mapping from `geom`), starting from `dots[h] = 0`.
    ///
    /// Returns `false` when the backend has no fused path (the default); the caller then
    /// reads [`KvLayerReader::key_row`] and reduces it in the materializing loop. When it
    /// returns `true`, `dots` must be **bit-identical** to that materializing reduction —
    /// same products, same accumulation order — so the two paths stay token-identical.
    fn fused_key_dots(&mut self, _t: usize, _q: &[f32], _geom: AttnGeometry, _dots: &mut [f32]) -> bool {
        false
    }

    /// Fused probs×V accumulation against the value row at position `t`: for every query
    /// head `h` with `probs[h] != 0.0`, adds `probs[h] * value[kv(h)*head_dim + d]` into
    /// `out[h*head_dim + d]` term by term (zero-prob heads are skipped exactly like the
    /// materializing loop skips them).
    ///
    /// Returns `false` when the backend has no fused path (the default). When it returns
    /// `true`, `out` must be bit-identical to the materializing accumulation.
    fn fused_value_accumulate(&mut self, _t: usize, _probs: &[f32], _geom: AttnGeometry, _out: &mut [f32]) -> bool {
        false
    }
}

/// Attention head geometry handed to the fused [`KvLayerReader`] fast paths.
///
/// `heads` query heads of `head_dim` elements each read KV rows of
/// `(heads / group) * head_dim` elements; query head `h` attends to KV head
/// `h / group` (grouped-query attention; `group == 1` is classic multi-head).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttnGeometry {
    /// Number of query heads.
    pub heads: usize,
    /// Elements per head.
    pub head_dim: usize,
    /// Query heads per KV head (GQA group size, ≥ 1).
    pub group: usize,
}

/// A KV-cache backend the transformer's zero-copy decode path can run over.
///
/// Extracted from the concrete [`KvCache`] so the model is agnostic to *how* rows are
/// stored: dequantized `f32` ([`KvCache`]) or bit-packed pages
/// ([`PagedKvCache`](crate::paging::PagedKvCache)). Appends hand the backend the raw
/// (pre-quantization) rows plus the scheme; reads go through a per-layer
/// [`KvLayerReader`]. Both backends must expose rows whose values equal
/// `scheme.quantize_dequantize(row)` bit for bit, which is what makes the backends
/// interchangeable token for token.
pub trait KvBackend {
    /// The per-layer reader type handed to the attention loop.
    type Layer<'a>: KvLayerReader
    where
        Self: 'a;

    /// Reusable per-read working memory the backend's readers decode rows into. Owned by
    /// the *caller* — in the threaded serving engine, by the worker thread — rather than
    /// the cache, so one scratch serves every sequence a worker steps and the caches
    /// themselves stay free of read-side mutable state. `()` for backends whose reads
    /// borrow storage directly (the f32 [`KvCache`]); a buffer pair for the paged backend
    /// ([`PagedScratch`](crate::paging::PagedScratch)).
    type Scratch: Default + Send + std::fmt::Debug;

    /// Number of layers.
    fn num_layers(&self) -> usize;

    /// Sequence length currently cached (same for every layer).
    fn seq_len(&self) -> usize;

    /// Appends one position's key and value rows to `layer`, quantized with `scheme`.
    fn append(&mut self, layer: usize, key: &[f32], value: &[f32], scheme: QuantScheme);

    /// A row reader over `layer`'s cached positions, decoding through `scratch`.
    fn layer_reader<'a>(&'a mut self, layer: usize, scratch: &'a mut Self::Scratch) -> Self::Layer<'a>;
}

impl KvLayerReader for &LayerKvCache {
    fn key_row(&mut self, t: usize) -> &[f32] {
        LayerKvCache::key_row(self, t)
    }

    fn value_row(&mut self, t: usize) -> &[f32] {
        LayerKvCache::value_row(self, t)
    }
}

impl KvBackend for KvCache {
    type Layer<'a> = &'a LayerKvCache;
    type Scratch = ();

    fn num_layers(&self) -> usize {
        KvCache::num_layers(self)
    }

    fn seq_len(&self) -> usize {
        KvCache::seq_len(self)
    }

    fn append(&mut self, layer: usize, key: &[f32], value: &[f32], scheme: QuantScheme) {
        self.layer_mut(layer).append(key, value, scheme);
    }

    fn layer_reader<'a>(&'a mut self, layer: usize, (): &'a mut ()) -> Self::Layer<'a> {
        self.layer(layer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_and_read_back() {
        let mut cache = LayerKvCache::new(4);
        cache.append(&[1.0, 2.0, 3.0, 4.0], &[0.5, 0.5, 0.5, 0.5], QuantScheme::Fp32);
        cache.append(&[-1.0, 0.0, 1.0, 2.0], &[0.1, 0.2, 0.3, 0.4], QuantScheme::Fp32);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.key_row(0), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(cache.value_row(1), &[0.1, 0.2, 0.3, 0.4]);
    }

    #[test]
    fn with_capacity_appends_do_not_move_storage() {
        let mut cache = LayerKvCache::with_capacity(8, 64);
        cache.append(&[1.0; 8], &[2.0; 8], QuantScheme::Fp32);
        let p_keys = cache.key_row(0).as_ptr();
        for _ in 1..64 {
            cache.append(&[1.0; 8], &[2.0; 8], QuantScheme::Fp32);
        }
        // Row storage was pre-reserved: 64 appends later, row 0 has not moved.
        assert_eq!(cache.key_row(0).as_ptr(), p_keys);
        assert_eq!(cache.len(), 64);
    }

    #[test]
    fn quantized_cache_is_lossy_but_close() {
        let mut exact = LayerKvCache::new(64);
        let mut quant = LayerKvCache::new(64);
        let key: Vec<f32> = (0..64).map(|i| (i as f32 * 0.37).sin()).collect();
        let value: Vec<f32> = (0..64).map(|i| (i as f32 * 0.11).cos()).collect();
        exact.append(&key, &value, QuantScheme::Fp32);
        quant.append(&key, &value, QuantScheme::mxfp4());
        let err = mx_formats::metrics::mse(exact.key_row(0), quant.key_row(0));
        assert!(err > 0.0 && err < 0.05);
    }

    #[test]
    fn multi_layer_cache() {
        let mut cache = KvCache::new(3, 8);
        assert_eq!(cache.num_layers(), 3);
        assert_eq!(cache.seq_len(), 0);
        for l in 0..3 {
            cache.layer_mut(l).append(&[0.0; 8], &[0.0; 8], QuantScheme::Fp32);
        }
        assert_eq!(cache.seq_len(), 1);
        cache.clear();
        assert_eq!(cache.seq_len(), 0);
    }

    #[test]
    fn storage_accounting() {
        let mut cache = LayerKvCache::new(32);
        for _ in 0..10 {
            cache.append(&[0.1; 32], &[0.2; 32], QuantScheme::Fp32);
        }
        // 2 * 10 rows of 32 elements: MXFP4 at 4.25 bits -> 17 bytes/row, BF16 -> 64.
        assert_eq!(cache.storage_bytes(QuantScheme::mxfp4()), 340);
        assert_eq!(cache.storage_bytes(QuantScheme::Bf16), 1280);
    }

    #[test]
    fn storage_accounting_ceils_per_row() {
        // kv_dim = 40 under MXFP4: 40 * 4.25 = 170 bits = 21.25 bytes -> 22 bytes per
        // stored row. The old flattened accounting (2*3*40 elements * 4.25 bits / 8,
        // ceiled once) reported 128 bytes, undercounting the partial trailing block of
        // every row.
        assert_eq!(LayerKvCache::row_storage_bytes(40, QuantScheme::mxfp4()), 22);
        let mut cache = LayerKvCache::new(40);
        for _ in 0..3 {
            cache.append(&[0.3; 40], &[0.4; 40], QuantScheme::Fp32);
        }
        assert_eq!(cache.storage_bytes(QuantScheme::mxfp4()), 132);
        assert!(cache.storage_bytes(QuantScheme::mxfp4()) > 128);
    }

    #[test]
    fn whole_cache_storage_sums_layers() {
        let mut cache = KvCache::new(2, 32);
        for l in 0..2 {
            for _ in 0..4 {
                cache.layer_mut(l).append(&[0.1; 32], &[0.1; 32], QuantScheme::Fp32);
            }
        }
        assert_eq!(cache.storage_bytes(QuantScheme::mxfp4()), 2 * 2 * 4 * 17);
    }

    #[test]
    #[should_panic(expected = "key width mismatch")]
    fn append_validates_width() {
        let mut cache = LayerKvCache::new(4);
        cache.append(&[1.0; 3], &[1.0; 4], QuantScheme::Fp32);
    }

    #[test]
    #[should_panic(expected = "position out of bounds")]
    fn row_reads_validate_position() {
        let mut cache = LayerKvCache::new(4);
        cache.append(&[1.0; 4], &[1.0; 4], QuantScheme::Fp32);
        let _ = cache.key_row(1);
    }
}
