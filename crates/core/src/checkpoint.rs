//! The native distributed checkpoint schema — what training writes.
//!
//! UCP's zero-save-overhead property (Fig. 11) comes from leaving this
//! format exactly as a normal distributed run would write it; conversion to
//! the universal format happens lazily, only when a resume detects a
//! configuration change.
//!
//! Per step `N`, under `global_step<N>/`:
//!
//! - one `model_states.ucpt` per (tp, pp) model slice, written by the
//!   dp=0/sp=0 replica: the bf16/fp16 model parameter shards plus the
//!   common training state;
//! - one `optim_states.ucpt` per (dp, tp, pp): this DP rank's ZeRO chunk of
//!   the flat fp32 master, `exp_avg`, and `exp_avg_sq`, plus the flat
//!   layout metadata needed to reassemble parameters from chunks.

use std::path::Path;

use serde::{Deserialize, Serialize};
use ucp_model::{ModelConfig, ParamStore};
use ucp_parallel::{FlatLayout, ParallelConfig};
use ucp_storage::{container, layout, Container, ContainerIndex, SectionRef};
use ucp_tensor::{DType, Tensor};

use crate::{Result, UcpError};

/// Training state shared by every rank (and carried into the universal
/// manifest): everything needed to resume besides tensors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CommonState {
    /// Completed training iterations.
    pub iteration: u64,
    /// Run seed (drives data order and any dropout-style randomness).
    pub seed: u64,
    /// Samples consumed from the data stream.
    pub data_cursor: u64,
    /// Adam step count.
    pub adam_step: u64,
    /// Model architecture.
    pub model: ModelConfig,
    /// The parallelism strategy that produced this checkpoint.
    pub parallel: ParallelConfig,
    /// Replicated parameters that were updated independently per rank and
    /// must be averaged on consolidation (`params_to_average`).
    pub params_to_average: Vec<String>,
}

#[derive(Serialize, Deserialize)]
struct ModelStatesHeader {
    common: CommonState,
    tp: usize,
    pp: usize,
}

#[derive(Serialize, Deserialize)]
struct OptimStatesHeader {
    common: CommonState,
    dp: usize,
    tp: usize,
    pp: usize,
    layout: FlatLayout,
}

/// One DP rank's slice of the flat optimizer state.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimShard {
    /// DP rank that owns this chunk.
    pub dp: usize,
    /// Flat layout of the whole (tp, pp) slice this chunk belongs to.
    pub layout: FlatLayout,
    /// fp32 master chunk.
    pub fp32: Vec<f32>,
    /// Adam first-moment chunk.
    pub exp_avg: Vec<f32>,
    /// Adam second-moment chunk.
    pub exp_avg_sq: Vec<f32>,
}

impl OptimShard {
    /// The flat element range this chunk covers.
    pub fn range(&self) -> std::ops::Range<usize> {
        self.layout.rank_range(self.dp)
    }

    /// The three state chunks, indexed as atoms are: `[fp32, exp_avg,
    /// exp_avg_sq]`.
    pub fn keys(&self) -> [&[f32]; 3] {
        [&self.fp32, &self.exp_avg, &self.exp_avg_sq]
    }
}

/// A borrowed [`OptimShard`]: what [`save_optim_states`] writes, so the
/// trainer persists straight out of its live buffers.
#[derive(Debug, Clone, Copy)]
pub struct OptimShardRef<'a> {
    /// DP rank that owns this chunk.
    pub dp: usize,
    /// Flat layout of the whole (tp, pp) slice this chunk belongs to.
    pub layout: &'a FlatLayout,
    /// fp32 master chunk.
    pub fp32: &'a [f32],
    /// Adam first-moment chunk.
    pub exp_avg: &'a [f32],
    /// Adam second-moment chunk.
    pub exp_avg_sq: &'a [f32],
}

impl<'a> From<&'a OptimShard> for OptimShardRef<'a> {
    fn from(s: &'a OptimShard) -> OptimShardRef<'a> {
        OptimShardRef {
            dp: s.dp,
            layout: &s.layout,
            fp32: &s.fp32,
            exp_avg: &s.exp_avg,
            exp_avg_sq: &s.exp_avg_sq,
        }
    }
}

/// Write a (tp, pp) slice's model-states file: staged and renamed into
/// place (atomic), not fsynced.
pub fn save_model_states(
    step_dir: &Path,
    common: &CommonState,
    tp: usize,
    pp: usize,
    params: &ParamStore,
) -> Result<()> {
    let header = serde_json::to_string(&ModelStatesHeader {
        common: common.clone(),
        tp,
        pp,
    })?;
    let sections: Vec<SectionRef<'_>> = params
        .iter()
        .map(|(name, t)| SectionRef {
            name,
            dtype: t.dtype(),
            dims: t.shape().dims(),
            data: t.as_slice(),
        })
        .collect();
    let path = layout::model_states_path(step_dir, tp, pp);
    Ok(container::write_file(&path, &header, &sections, false)?)
}

/// Read a model-states file: `(common, tp, pp, named shards)`.
pub fn load_model_states(
    step_dir: &Path,
    tp: usize,
    pp: usize,
) -> Result<(CommonState, Vec<(String, Tensor)>)> {
    let c = Container::read_file(&layout::model_states_path(step_dir, tp, pp))?;
    let header: ModelStatesHeader = serde_json::from_str(&c.header)?;
    if header.tp != tp || header.pp != pp {
        return Err(UcpError::Inconsistent(format!(
            "model_states at ({tp}, {pp}) claims ({}, {})",
            header.tp, header.pp
        )));
    }
    Ok((
        header.common,
        c.sections.into_iter().map(|s| (s.name, s.tensor)).collect(),
    ))
}

/// Write one (dp, tp, pp) rank's optimizer-states file from borrowed
/// buffers (an `&OptimShard` converts); atomic, not fsynced, as
/// [`save_model_states`].
pub fn save_optim_states<'a>(
    step_dir: &Path,
    common: &CommonState,
    tp: usize,
    pp: usize,
    shard: impl Into<OptimShardRef<'a>>,
) -> Result<()> {
    let shard = shard.into();
    let header = serde_json::to_string(&OptimStatesHeader {
        common: common.clone(),
        dp: shard.dp,
        tp,
        pp,
        layout: shard.layout.clone(),
    })?;
    let dims = [shard.fp32.len()];
    let sections = [
        ("fp32", shard.fp32),
        ("exp_avg", shard.exp_avg),
        ("exp_avg_sq", shard.exp_avg_sq),
    ]
    .map(|(name, data)| SectionRef {
        name,
        dtype: DType::F32,
        dims: &dims,
        data,
    });
    let path = layout::optim_states_path(step_dir, shard.dp, tp, pp);
    Ok(container::write_file(&path, &header, &sections, false)?)
}

/// The run's common state, from the header of the (0, 0, 0)
/// optimizer-states file alone (every optimizer header carries it): the
/// file's head is read, no payload.
pub fn read_common_state(step_dir: &Path) -> Result<CommonState> {
    let mut file = container::open_file(&layout::optim_states_path(step_dir, 0, 0, 0))?;
    let index = ContainerIndex::read_head(&mut file)?;
    let header: OptimStatesHeader = serde_json::from_str(&index.header)?;
    Ok(header.common)
}

/// Read one (dp, tp, pp) rank's optimizer-states file; its three sections
/// become the shard's buffers without a copy.
pub fn load_optim_states(
    step_dir: &Path,
    dp: usize,
    tp: usize,
    pp: usize,
) -> Result<(CommonState, OptimShard)> {
    let mut c = Container::read_file(&layout::optim_states_path(step_dir, dp, tp, pp))?;
    let header: OptimStatesHeader = serde_json::from_str(&c.header)?;
    if header.dp != dp || header.tp != tp || header.pp != pp {
        return Err(UcpError::Inconsistent(format!(
            "optim_states at ({dp}, {tp}, {pp}) claims ({}, {}, {})",
            header.dp, header.tp, header.pp
        )));
    }
    let expected = header.layout.chunk;
    let mut take = |key: &str| -> Result<Vec<f32>> {
        let at = (c.sections.iter().position(|s| s.name == key))
            .ok_or_else(|| UcpError::Inconsistent(format!("missing section {key}")))?;
        let values = c.sections.swap_remove(at).tensor.into_vec();
        if values.len() != expected {
            return Err(UcpError::Inconsistent(format!(
                "section {key} has {} elements, layout chunk is {expected}",
                values.len()
            )));
        }
        Ok(values)
    };
    let shard = OptimShard {
        dp,
        layout: header.layout,
        fp32: take("fp32")?,
        exp_avg: take("exp_avg")?,
        exp_avg_sq: take("exp_avg_sq")?,
    };
    Ok((header.common, shard))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucp_parallel::ZeroStage;
    use ucp_tensor::{DetRng, Shape};

    fn common() -> CommonState {
        CommonState {
            iteration: 100,
            seed: 42,
            data_cursor: 25_600,
            adam_step: 100,
            model: ModelConfig::gpt3_tiny(),
            parallel: ParallelConfig::new(2, 2, 2, 1, ZeroStage::Zero1),
            params_to_average: vec![],
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ucp_ckpt_test_{name}"));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn model_states_roundtrip() {
        let dir = tmp("model");
        let rng = DetRng::new(3);
        let mut store = ParamStore::new();
        store.insert("a.weight", Tensor::randn([4, 2], 1.0, &rng.derive("a")));
        store.insert("b.weight", Tensor::randn([3], 1.0, &rng.derive("b")));
        save_model_states(&dir, &common(), 1, 0, &store).unwrap();
        let (c, params) = load_model_states(&dir, 1, 0).unwrap();
        assert_eq!(c, common());
        assert_eq!(params.len(), 2);
        assert!(params[0].1.bitwise_eq(store.get(&params[0].0)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn optim_states_roundtrip() {
        let dir = tmp("optim");
        let layout = FlatLayout::build(&[("p".to_string(), Shape::new([10]))], 4, 2);
        let shard = OptimShard {
            dp: 1,
            layout: layout.clone(),
            fp32: vec![1.0; layout.chunk],
            exp_avg: vec![2.0; layout.chunk],
            exp_avg_sq: vec![3.0; layout.chunk],
        };
        save_optim_states(&dir, &common(), 0, 1, &shard).unwrap();
        let (c, back) = load_optim_states(&dir, 1, 0, 1).unwrap();
        assert_eq!(c.iteration, 100);
        assert_eq!(back, shard);
        // The header alone yields the same common state.
        let first = OptimShard {
            dp: 0,
            ..shard.clone()
        };
        save_optim_states(&dir, &common(), 0, 0, &first).unwrap();
        assert_eq!(read_common_state(&dir).unwrap(), common());
        assert_eq!(back.range(), layout.chunk..2 * layout.chunk);

        // Writing from the borrowed shard produces the same file as the
        // equivalent owned container.
        let path = layout::optim_states_path(&dir, 1, 0, 1);
        let mut owned = Container::new(Container::read_file(&path).unwrap().header);
        for (key, data) in [
            ("fp32", &shard.fp32),
            ("exp_avg", &shard.exp_avg),
            ("exp_avg_sq", &shard.exp_avg_sq),
        ] {
            owned.push(key, Tensor::from_vec(data.clone(), [data.len()]).unwrap());
        }
        let owned_path = dir.join("owned.ucpt");
        owned.write_file(&owned_path).unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            std::fs::read(&owned_path).unwrap()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_coordinates_detected() {
        let dir = tmp("coords");
        let store = ParamStore::new();
        save_model_states(&dir, &common(), 0, 0, &store).unwrap();
        // Copy the file to a wrong location and load from there.
        let src = layout::model_states_path(&dir, 0, 0);
        let dst = layout::model_states_path(&dir, 1, 0);
        std::fs::create_dir_all(dst.parent().unwrap()).unwrap();
        std::fs::copy(&src, &dst).unwrap();
        assert!(matches!(
            load_model_states(&dir, 1, 0),
            Err(UcpError::Inconsistent(_))
        ));

        // An optimizer chunk under another rank's name: whoever asked for
        // zero index 1 must not be handed index 0's elements.
        let layout = FlatLayout::build(&[("p".to_string(), Shape::new([10]))], 4, 2);
        let chunk = vec![0.0; layout.chunk];
        let shard = OptimShard {
            dp: 0,
            layout,
            fp32: chunk.clone(),
            exp_avg: chunk.clone(),
            exp_avg_sq: chunk,
        };
        save_optim_states(&dir, &common(), 0, 0, &shard).unwrap();
        let src = layout::optim_states_path(&dir, 0, 0, 0);
        let dst = layout::optim_states_path(&dir, 1, 0, 0);
        std::fs::create_dir_all(dst.parent().unwrap()).unwrap();
        std::fs::copy(&src, &dst).unwrap();
        assert!(matches!(
            load_optim_states(&dir, 1, 0, 0),
            Err(UcpError::Inconsistent(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_storage_error() {
        let dir = tmp("missing");
        assert!(matches!(
            load_optim_states(&dir, 0, 0, 0),
            Err(UcpError::Storage(_))
        ));
    }
}
