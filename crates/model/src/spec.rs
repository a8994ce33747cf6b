//! Parameter specifications: the full, unsharded inventory of a model's
//! named parameters, with their tensor-parallel partition rules and
//! pipeline-stage assignment.
//!
//! This inventory is shared by three consumers: parameter initialization
//! (every rank materializes exactly its shard of each spec), the distributed
//! checkpoint writer (which records per-shard provenance), and the UCP
//! engine (whose pattern matching in `ucp-core` is driven by the partition
//! rule recorded here).

use serde::{Deserialize, Serialize};
use ucp_tensor::{DetRng, Shape, Tensor};

use crate::config::{MlpKind, ModelConfig, PositionKind};

/// How a parameter is split across a tensor-parallel group.
///
/// These are the source-side counterparts of the paper's parameter patterns
/// (Table 1) and sub-patterns (Fig. 5): `Replicated` ↔ `replicated_params`,
/// the others are `fragment_params` with different slicing rules.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Partition {
    /// Every TP rank holds the full tensor.
    Replicated,
    /// Evenly split along `dim` (row/column parallelism; `dim > 0` covers
    /// the paper's 3-D MoE example `[experts, out, in]` sharded on `out`).
    Shard {
        /// The partitioned dimension.
        dim: usize,
    },
    /// Evenly split along `dim` after zero-padding the extent up to a
    /// multiple of `multiple × tp` — Megatron's hardware-alignment vocab
    /// padding. The padding exists only at runtime: consolidation strips it
    /// (the paper's `StripPadding`) and loading re-introduces it.
    PaddedShard {
        /// The partitioned dimension.
        dim: usize,
        /// Alignment quantum (the padded extent is a multiple of
        /// `multiple × tp`).
        multiple: usize,
    },
    /// Dimension `dim` is a concatenation of `sections` (e.g. fused QKV of
    /// GQA: `[q_size, k_size, v_size]` with different sizes, fused SwiGLU
    /// gate+up `[ffn, ffn]`, or MoE expert weights `[experts, 2·ffn, hidden]`
    /// sectioned along dim 1); each section is split evenly and rank `r`
    /// holds the concatenation of its per-section slices. This is the
    /// variable-size fragment sub-pattern of the paper's Fig. 5.
    Grouped {
        /// The partitioned dimension.
        dim: usize,
        /// Extents of the fused sections along `dim`.
        sections: Vec<usize>,
    },
}

/// One contiguous run of a rank's flattened shard, located in the
/// flattened *full* tensor — the unit a ranged atom read fetches.
///
/// Produced by [`Partition::shard_segments`]. `src_offset` is `None` for
/// alignment padding a [`Partition::PaddedShard`] re-introduces: those
/// shard elements exist only at runtime and have no bytes on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSegment {
    /// Start offset within the rank's flattened shard (elements).
    pub shard_offset: usize,
    /// Start offset within the flattened full tensor, or `None` for
    /// padding (materialized as zeros, never read).
    pub src_offset: Option<usize>,
    /// Run length (elements).
    pub len: usize,
}

impl Partition {
    /// The padded extent of dimension `extent` under `tp`-way padded
    /// sharding with quantum `multiple`.
    pub fn padded_extent(extent: usize, multiple: usize, tp: usize) -> usize {
        let quantum = multiple.max(1) * tp;
        extent.div_ceil(quantum) * quantum
    }

    /// Where rank `r`'s shard elements live in the flattened full tensor,
    /// as contiguous runs in ascending shard order (adjacent runs merged).
    ///
    /// This is the metadata that lets `Load` read a shard without
    /// materializing the full tensor: every `Some`-sourced segment is one
    /// contiguous byte range of the atom on disk, and concatenating the
    /// segments (padding as zeros) reproduces
    /// `self.shard(full, tp, r).flatten()` exactly.
    pub fn shard_segments(&self, full: &Shape, tp: usize, r: usize) -> Vec<ShardSegment> {
        let dims = full.dims();
        let mut out = Vec::new();
        let push = |out: &mut Vec<ShardSegment>, shard_offset, src_offset, len: usize| {
            if len == 0 {
                return;
            }
            // Merge with the previous run when both shard and source
            // continue contiguously (e.g. dim-0 shards collapse to one).
            if let Some(last) = out.last_mut() {
                let shard_joins = last.shard_offset + last.len == shard_offset;
                let src_joins = match (last.src_offset, src_offset) {
                    (Some(a), Some(b)) => a + last.len == b,
                    (None, None) => true,
                    _ => false,
                };
                if shard_joins && src_joins {
                    last.len += len;
                    return;
                }
            }
            out.push(ShardSegment {
                shard_offset,
                src_offset,
                len,
            });
        };
        match self {
            Partition::Replicated => {
                push(&mut out, 0, Some(0), full.num_elements());
            }
            Partition::Shard { dim } => {
                let extent = dims[*dim];
                let chunk = extent / tp;
                let outer: usize = dims[..*dim].iter().product();
                let inner: usize = dims[*dim + 1..].iter().product();
                for o in 0..outer {
                    push(
                        &mut out,
                        o * chunk * inner,
                        Some((o * extent + r * chunk) * inner),
                        chunk * inner,
                    );
                }
            }
            Partition::PaddedShard { dim, multiple } => {
                let extent = dims[*dim];
                let padded = Partition::padded_extent(extent, *multiple, tp);
                let chunk = padded / tp;
                let start = r * chunk;
                let outer: usize = dims[..*dim].iter().product();
                let inner: usize = dims[*dim + 1..].iter().product();
                // Rows past the real extent are runtime-only padding.
                let real = extent.saturating_sub(start).min(chunk);
                for o in 0..outer {
                    let base = o * chunk * inner;
                    push(
                        &mut out,
                        base,
                        Some((o * extent + start) * inner),
                        real * inner,
                    );
                    push(&mut out, base + real * inner, None, (chunk - real) * inner);
                }
            }
            Partition::Grouped { dim, sections } => {
                let extent = dims[*dim];
                let shard_extent: usize = sections.iter().map(|s| s / tp).sum();
                let outer: usize = dims[..*dim].iter().product();
                let inner: usize = dims[*dim + 1..].iter().product();
                for o in 0..outer {
                    let mut sec_off = 0;
                    let mut shard_row = 0;
                    for &sec in sections {
                        let chunk = sec / tp;
                        push(
                            &mut out,
                            (o * shard_extent + shard_row) * inner,
                            Some((o * extent + sec_off + r * chunk) * inner),
                            chunk * inner,
                        );
                        sec_off += sec;
                        shard_row += chunk;
                    }
                }
            }
        }
        out
    }

    /// Shape of rank `r`'s shard of a tensor with `full` shape under `tp`-way
    /// partitioning.
    pub fn shard_shape(&self, full: &Shape, tp: usize) -> Shape {
        match self {
            Partition::Replicated => full.clone(),
            Partition::Shard { dim } => full.with_dim(*dim, full.dims()[*dim] / tp),
            Partition::PaddedShard { dim, multiple } => full.with_dim(
                *dim,
                Partition::padded_extent(full.dims()[*dim], *multiple, tp) / tp,
            ),
            Partition::Grouped { dim, sections } => {
                let rows: usize = sections.iter().map(|s| s / tp).sum();
                full.with_dim(*dim, rows)
            }
        }
    }

    /// Extract rank `r`'s shard from the full tensor.
    pub fn shard(&self, full: &Tensor, tp: usize, r: usize) -> Tensor {
        match self {
            Partition::Replicated => full.clone(),
            Partition::Shard { dim } => {
                let chunk = full.shape().dims()[*dim] / tp;
                full.narrow(*dim, r * chunk, chunk)
                    .expect("validated shard range")
            }
            Partition::PaddedShard { dim, multiple } => {
                let padded = Partition::padded_extent(full.shape().dims()[*dim], *multiple, tp);
                let chunk = padded / tp;
                full.pad_dim(*dim, padded)
                    .expect("padding grows the dimension")
                    .narrow(*dim, r * chunk, chunk)
                    .expect("validated padded range")
            }
            Partition::Grouped { dim, sections } => {
                let mut pieces = Vec::with_capacity(sections.len());
                let mut offset = 0;
                for &sec in sections {
                    let chunk = sec / tp;
                    pieces.push(
                        full.narrow(*dim, offset + r * chunk, chunk)
                            .expect("validated section range"),
                    );
                    offset += sec;
                }
                let refs: Vec<&Tensor> = pieces.iter().collect();
                Tensor::concat(&refs, *dim).expect("uniform non-zero sections")
            }
        }
    }

    /// Reassemble the full tensor from all `tp` shards (rank order).
    /// Inverse of [`Partition::shard`]; the paper's pattern-specific Union.
    pub fn unshard(&self, shards: &[Tensor]) -> Tensor {
        let tp = shards.len();
        match self {
            Partition::Replicated => shards[0].clone(),
            Partition::Shard { dim } | Partition::PaddedShard { dim, .. } => {
                // For PaddedShard the concatenation still carries the
                // alignment padding; the caller strips it against the
                // logical shape (Algorithm 1's `hasPadding → StripPadding`).
                let refs: Vec<&Tensor> = shards.iter().collect();
                Tensor::concat(&refs, *dim).expect("uniform shard shapes")
            }
            Partition::Grouped { dim, sections } => {
                // Per-rank shards each contain one slice per section;
                // reassemble section-major.
                let mut section_slices: Vec<Vec<Tensor>> =
                    (0..sections.len()).map(|_| Vec::new()).collect();
                for shard in shards {
                    let mut offset = 0;
                    for (s, &sec) in sections.iter().enumerate() {
                        let chunk = sec / tp;
                        section_slices[s].push(
                            shard
                                .narrow(*dim, offset, chunk)
                                .expect("shard sections sized consistently"),
                        );
                        offset += chunk;
                    }
                }
                let mut sections_cat = Vec::with_capacity(sections.len());
                for slices in &section_slices {
                    let refs: Vec<&Tensor> = slices.iter().collect();
                    sections_cat.push(Tensor::concat(&refs, *dim).expect("uniform slices"));
                }
                let refs: Vec<&Tensor> = sections_cat.iter().collect();
                Tensor::concat(&refs, *dim).expect("uniform sections")
            }
        }
    }
}

/// Initialization rule for a parameter.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Init {
    /// Zero-mean normal with the given standard deviation.
    Normal(f32),
    /// All zeros (biases).
    Zeros,
    /// All ones (norm scales).
    Ones,
}

/// Which pipeline unit owns a parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LayerRole {
    /// Input embeddings (first pipeline stage).
    Embedding,
    /// Transformer layer `i` (assigned to a stage by the PP split).
    Block(usize),
    /// Final norm + LM head (last pipeline stage).
    Head,
    /// Word embeddings tied to the LM head: lives on *both* the first and
    /// last pipeline stages (Megatron's shared-embedding group).
    SharedEmbedding,
}

/// The full specification of one named parameter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParamSpec {
    /// Canonical dotted name, Megatron-style.
    pub name: String,
    /// Full, unsharded shape.
    pub shape: Shape,
    /// Initialization rule.
    pub init: Init,
    /// Tensor-parallel partition rule.
    pub partition: Partition,
    /// Pipeline assignment.
    pub role: LayerRole,
    /// Independently-updated blocks along the leading dimension — the
    /// experts of a MoE expert weight, which a step updates only where the
    /// router sent tokens. Dirty tracking and the universal tree's sub-atom
    /// split are granular to it; 1 for every other parameter.
    pub blocks: usize,
}

impl ParamSpec {
    /// Materialize the *full* tensor for this parameter from the run seed.
    ///
    /// Every parameter draws from a stream derived from its name, so the
    /// value is identical no matter which rank (or how many ranks)
    /// materialize it.
    pub fn materialize_full(&self, seed_rng: &DetRng) -> Tensor {
        match self.init {
            Init::Normal(std) => Tensor::randn(
                self.shape.clone(),
                std,
                &seed_rng.derive(&format!("param:{}", self.name)),
            ),
            Init::Zeros => Tensor::zeros(self.shape.clone()),
            Init::Ones => Tensor::full(self.shape.clone(), 1.0),
        }
    }

    /// Materialize rank `r`'s TP shard.
    pub fn materialize_shard(&self, seed_rng: &DetRng, tp: usize, r: usize) -> Tensor {
        self.partition
            .shard(&self.materialize_full(seed_rng), tp, r)
    }
}

/// Build the complete parameter inventory for a model configuration.
///
/// Naming follows Megatron-LM (`embedding.word_embeddings.weight`,
/// `layers.{i}.attention.query_key_value.weight`, ...), which is the naming
/// family the paper's atom-checkpoint example uses.
pub fn param_specs(cfg: &ModelConfig) -> Vec<ParamSpec> {
    let h = cfg.hidden_size;
    let kv = cfg.num_kv_heads * cfg.head_dim();
    let init_std = 0.02f32;
    // Scaled init for residual-output projections, as in GPT-2/Megatron.
    let out_std = 0.02 / (2.0 * cfg.num_layers as f32).sqrt();
    let mut specs = Vec::new();

    // `ParamSpec::blocks` of the specs pushed next.
    let blocks = std::cell::Cell::new(1);
    let mut push =
        |name: String, shape: Shape, init: Init, partition: Partition, role: LayerRole| {
            specs.push(ParamSpec {
                name,
                shape,
                init,
                partition,
                role,
                blocks: blocks.get(),
            });
        };

    // Embeddings. Word embeddings are vocab-parallel (fragment dim 0), the
    // paper's canonical atom example; with alignment padding enabled the
    // vocab dimension is padded per-TP-degree at runtime.
    let vocab_partition = if cfg.vocab_pad_multiple > 1 {
        Partition::PaddedShard {
            dim: 0,
            multiple: cfg.vocab_pad_multiple,
        }
    } else {
        Partition::Shard { dim: 0 }
    };
    push(
        "embedding.word_embeddings.weight".into(),
        Shape::new([cfg.vocab_size, h]),
        Init::Normal(init_std),
        vocab_partition.clone(),
        if cfg.tie_embeddings {
            LayerRole::SharedEmbedding
        } else {
            LayerRole::Embedding
        },
    );
    if cfg.position == PositionKind::Learned {
        push(
            "embedding.position_embeddings.weight".into(),
            Shape::new([cfg.max_seq_len, h]),
            Init::Normal(init_std),
            Partition::Replicated,
            LayerRole::Embedding,
        );
    }

    for i in 0..cfg.num_layers {
        let p = |suffix: &str| format!("layers.{i}.{suffix}");
        let role = LayerRole::Block(i);

        // Pre-attention norm.
        push(
            p("input_layernorm.weight"),
            Shape::new([h]),
            Init::Ones,
            Partition::Replicated,
            role,
        );
        if cfg.norm == crate::config::NormKind::LayerNorm {
            push(
                p("input_layernorm.bias"),
                Shape::new([h]),
                Init::Zeros,
                Partition::Replicated,
                role,
            );
        }

        // Fused QKV: `[q + k + v, hidden]`, the GQA layout of Fig. 5.
        let qkv_sections = vec![h, kv, kv];
        push(
            p("attention.query_key_value.weight"),
            Shape::new([cfg.qkv_rows(), h]),
            Init::Normal(init_std),
            Partition::Grouped {
                dim: 0,
                sections: qkv_sections.clone(),
            },
            role,
        );
        if cfg.linear_bias {
            push(
                p("attention.query_key_value.bias"),
                Shape::new([cfg.qkv_rows()]),
                Init::Zeros,
                Partition::Grouped {
                    dim: 0,
                    sections: qkv_sections,
                },
                role,
            );
        }

        // Attention output projection: row-parallel.
        push(
            p("attention.dense.weight"),
            Shape::new([h, h]),
            Init::Normal(out_std),
            Partition::Shard { dim: 1 },
            role,
        );
        if cfg.linear_bias {
            push(
                p("attention.dense.bias"),
                Shape::new([h]),
                Init::Zeros,
                Partition::Replicated,
                role,
            );
        }

        // Post-attention norm.
        push(
            p("post_attention_layernorm.weight"),
            Shape::new([h]),
            Init::Ones,
            Partition::Replicated,
            role,
        );
        if cfg.norm == crate::config::NormKind::LayerNorm {
            push(
                p("post_attention_layernorm.bias"),
                Shape::new([h]),
                Init::Zeros,
                Partition::Replicated,
                role,
            );
        }

        if cfg.is_moe() {
            // Router is replicated; expert weights are 3-D tensors sharded
            // along the FFN dimension — the MoE sub-pattern of Fig. 5.
            push(
                p("moe.router.weight"),
                Shape::new([cfg.num_experts, h]),
                Init::Normal(init_std),
                Partition::Replicated,
                role,
            );
            let (w1_rows, w1_partition) = match cfg.mlp {
                MlpKind::Gelu => (cfg.ffn_size, Partition::Shard { dim: 1 }),
                MlpKind::SwiGlu => (
                    2 * cfg.ffn_size,
                    // Gate and up sections each split across TP along the
                    // expert-FFN dimension (3-D Grouped sub-pattern).
                    Partition::Grouped {
                        dim: 1,
                        sections: vec![cfg.ffn_size, cfg.ffn_size],
                    },
                ),
            };
            // One block per expert: TP splits a later dimension, so expert
            // `e` is slice `e` of the leading one in every shard.
            blocks.set(cfg.num_experts);
            push(
                p("moe.experts.dense_h_to_4h.weight"),
                Shape::new([cfg.num_experts, w1_rows, h]),
                Init::Normal(init_std),
                w1_partition,
                role,
            );
            push(
                p("moe.experts.dense_4h_to_h.weight"),
                Shape::new([cfg.num_experts, h, cfg.ffn_size]),
                Init::Normal(out_std),
                Partition::Shard { dim: 2 },
                role,
            );
            blocks.set(1);
        } else {
            match cfg.mlp {
                MlpKind::Gelu => {
                    push(
                        p("mlp.dense_h_to_4h.weight"),
                        Shape::new([cfg.ffn_size, h]),
                        Init::Normal(init_std),
                        Partition::Shard { dim: 0 },
                        role,
                    );
                    if cfg.linear_bias {
                        push(
                            p("mlp.dense_h_to_4h.bias"),
                            Shape::new([cfg.ffn_size]),
                            Init::Zeros,
                            Partition::Shard { dim: 0 },
                            role,
                        );
                    }
                }
                MlpKind::SwiGlu => {
                    // Fused gate+up: two equal sections, each split across TP.
                    push(
                        p("mlp.gate_up.weight"),
                        Shape::new([2 * cfg.ffn_size, h]),
                        Init::Normal(init_std),
                        Partition::Grouped {
                            dim: 0,
                            sections: vec![cfg.ffn_size, cfg.ffn_size],
                        },
                        role,
                    );
                }
            }
            push(
                p("mlp.dense_4h_to_h.weight"),
                Shape::new([h, cfg.ffn_size]),
                Init::Normal(out_std),
                Partition::Shard { dim: 1 },
                role,
            );
            if cfg.linear_bias {
                push(
                    p("mlp.dense_4h_to_h.bias"),
                    Shape::new([h]),
                    Init::Zeros,
                    Partition::Replicated,
                    role,
                );
            }
        }
    }

    // Final norm + untied LM head (vocab-parallel).
    push(
        "final_layernorm.weight".into(),
        Shape::new([h]),
        Init::Ones,
        Partition::Replicated,
        LayerRole::Head,
    );
    if cfg.norm == crate::config::NormKind::LayerNorm {
        push(
            "final_layernorm.bias".into(),
            Shape::new([h]),
            Init::Zeros,
            Partition::Replicated,
            LayerRole::Head,
        );
    }
    // With tied embeddings the head reuses the shared word-embedding
    // weight; there is no separate lm_head parameter.
    if !cfg.tie_embeddings {
        push(
            "lm_head.weight".into(),
            Shape::new([cfg.vocab_size, h]),
            Init::Normal(init_std),
            vocab_partition,
            LayerRole::Head,
        );
    }

    specs
}

/// Look up a spec by name.
pub fn find_spec<'a>(specs: &'a [ParamSpec], name: &str) -> Option<&'a ParamSpec> {
    specs.iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpt_inventory_has_expected_names() {
        let specs = param_specs(&ModelConfig::gpt3_tiny());
        let names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"embedding.word_embeddings.weight"));
        assert!(names.contains(&"embedding.position_embeddings.weight"));
        assert!(names.contains(&"layers.0.attention.query_key_value.weight"));
        assert!(names.contains(&"layers.7.mlp.dense_4h_to_h.bias"));
        assert!(names.contains(&"lm_head.weight"));
    }

    #[test]
    fn llama_has_no_biases_or_positions() {
        let specs = param_specs(&ModelConfig::llama_tiny());
        assert!(specs.iter().all(|s| !s.name.ends_with(".bias")));
        assert!(!specs.iter().any(|s| s.name.contains("position_embeddings")));
        assert!(specs.iter().any(|s| s.name.contains("mlp.gate_up")));
    }

    #[test]
    fn moe_experts_are_3d_sharded_on_middle_dim() {
        let specs = param_specs(&ModelConfig::moe_tiny());
        let w1 = find_spec(&specs, "layers.0.moe.experts.dense_h_to_4h.weight").unwrap();
        assert_eq!(w1.shape.rank(), 3);
        assert_eq!(
            w1.partition,
            Partition::Grouped {
                dim: 1,
                sections: vec![64, 64]
            }
        );
        let w2 = find_spec(&specs, "layers.0.moe.experts.dense_4h_to_h.weight").unwrap();
        assert_eq!(w2.partition, Partition::Shard { dim: 2 });
        // Only the expert weights are blocked, one block per expert.
        for s in &specs {
            let experts = s.name.contains(".moe.experts.");
            assert_eq!(s.blocks, if experts { 8 } else { 1 }, "{}", s.name);
        }
    }

    #[test]
    fn shard_unshard_roundtrip_even() {
        let cfg = ModelConfig::gpt3_tiny();
        let rng = DetRng::new(1);
        for spec in param_specs(&cfg) {
            let full = spec.materialize_full(&rng);
            for tp in [1usize, 2, 4] {
                if cfg.validate(tp).is_err() {
                    continue;
                }
                let shards: Vec<Tensor> = (0..tp)
                    .map(|r| spec.partition.shard(&full, tp, r))
                    .collect();
                let back = spec.partition.unshard(&shards);
                assert!(back.bitwise_eq(&full), "roundtrip failed for {}", spec.name);
            }
        }
    }

    #[test]
    fn shard_segments_reconstruct_every_shard() {
        // Property: for every parameter in the inventory and every rank,
        // gathering the full tensor's elements at each segment's source
        // (zeros for padding) reproduces `shard(...).flatten()` exactly.
        // This is the contract the ranged load path builds on.
        let configs = [
            ModelConfig::gpt3_tiny_padded_vocab(),
            ModelConfig::llama_tiny(),
            ModelConfig::moe_tiny(),
        ];
        let rng = DetRng::new(11);
        for cfg in &configs {
            for spec in param_specs(cfg) {
                let full = spec.materialize_full(&rng);
                let flat_full = full.as_slice();
                for tp in [1usize, 2, 4] {
                    for r in 0..tp {
                        let segs = spec.partition.shard_segments(&spec.shape, tp, r);
                        let expect = spec.partition.shard(&full, tp, r).flatten();
                        let mut got = vec![0.0f32; expect.num_elements()];
                        let mut cursor = 0;
                        for seg in &segs {
                            // Segments are ascending, disjoint, and
                            // non-mergeable (otherwise push would have
                            // merged them).
                            assert_eq!(seg.shard_offset, cursor, "{} gap", spec.name);
                            cursor += seg.len;
                            if let Some(src) = seg.src_offset {
                                got[seg.shard_offset..seg.shard_offset + seg.len]
                                    .copy_from_slice(&flat_full[src..src + seg.len]);
                            }
                        }
                        assert_eq!(cursor, expect.num_elements(), "{} coverage", spec.name);
                        assert_eq!(
                            got,
                            expect.as_slice(),
                            "{} tp{tp} rank{r} segments mismatch",
                            spec.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn shard_segments_merge_contiguous_runs() {
        // A dim-0 shard of a 2-D tensor is one contiguous run.
        let p = Partition::Shard { dim: 0 };
        let shape = Shape::new([8, 4]);
        let segs = p.shard_segments(&shape, 2, 1);
        assert_eq!(
            segs,
            vec![ShardSegment {
                shard_offset: 0,
                src_offset: Some(16),
                len: 16
            }]
        );
        // Replicated is one run covering everything.
        assert_eq!(Partition::Replicated.shard_segments(&shape, 4, 3).len(), 1);
        // A dim-1 shard needs one run per row.
        assert_eq!(
            Partition::Shard { dim: 1 }
                .shard_segments(&shape, 2, 0)
                .len(),
            8
        );
    }

    #[test]
    fn padded_shard_segments_mark_padding() {
        // 10 rows padded to 12 across tp=4: rank 3 holds real row 9 plus
        // two padding rows with no on-disk source.
        let p = Partition::PaddedShard {
            dim: 0,
            multiple: 1,
        };
        let shape = Shape::new([10, 3]);
        let segs = p.shard_segments(&shape, 4, 3);
        assert_eq!(
            segs,
            vec![
                ShardSegment {
                    shard_offset: 0,
                    src_offset: Some(27),
                    len: 3
                },
                ShardSegment {
                    shard_offset: 3,
                    src_offset: None,
                    len: 6
                },
            ]
        );
    }

    #[test]
    fn gqa_grouped_shard_sizes_differ_per_section() {
        let cfg = ModelConfig::llama_tiny();
        let specs = param_specs(&cfg);
        let qkv = find_spec(&specs, "layers.0.attention.query_key_value.weight").unwrap();
        // Full rows = 32 (q) + 16 (k) + 16 (v) = 64; each TP=2 shard holds
        // 16 q-rows + 8 k-rows + 8 v-rows = 32 rows.
        let shard = qkv.partition.shard_shape(&qkv.shape, 2);
        assert_eq!(shard.dims(), &[32, 32]);
    }

    #[test]
    fn shard_materialization_matches_full_slice() {
        let cfg = ModelConfig::llama_tiny();
        let rng = DetRng::new(77);
        let specs = param_specs(&cfg);
        let qkv = find_spec(&specs, "layers.1.attention.query_key_value.weight").unwrap();
        let full = qkv.materialize_full(&rng);
        let s0 = qkv.materialize_shard(&rng, 2, 0);
        let s1 = qkv.materialize_shard(&rng, 2, 1);
        let back = qkv.partition.unshard(&[s0, s1]);
        assert!(back.bitwise_eq(&full));
    }

    #[test]
    fn init_kinds_respected() {
        let specs = param_specs(&ModelConfig::gpt3_tiny());
        let rng = DetRng::new(5);
        let ln = find_spec(&specs, "layers.0.input_layernorm.weight").unwrap();
        assert!(ln
            .materialize_full(&rng)
            .as_slice()
            .iter()
            .all(|v| *v == 1.0));
        let bias = find_spec(&specs, "layers.0.input_layernorm.bias").unwrap();
        assert!(bias
            .materialize_full(&rng)
            .as_slice()
            .iter()
            .all(|v| *v == 0.0));
    }

    #[test]
    fn roles_partition_the_inventory() {
        let cfg = ModelConfig::gpt3_tiny();
        let specs = param_specs(&cfg);
        assert!(specs.iter().any(|s| s.role == LayerRole::Embedding));
        assert!(specs.iter().any(|s| s.role == LayerRole::Head));
        for i in 0..cfg.num_layers {
            assert!(specs.iter().any(|s| s.role == LayerRole::Block(i)));
        }
    }
}
