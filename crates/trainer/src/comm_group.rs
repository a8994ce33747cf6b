//! Bridges the cluster's communicators to the model crate's [`GroupOps`].

use ucp_collectives::{Comm, Group};
use ucp_model::GroupOps;
use ucp_tensor::Tensor;

/// A process group bound to a communicator, usable by layer math.
pub struct CommGroup<'a> {
    comm: &'a Comm,
    group: Group,
    rank_in_group: usize,
}

impl<'a> CommGroup<'a> {
    /// Bind `comm` to a member list (must contain the caller's rank).
    pub fn new(comm: &'a Comm, members: Vec<usize>) -> CommGroup<'a> {
        let group = Group::new(members).expect("valid group");
        let rank_in_group = group
            .index_of(comm.rank())
            .expect("caller must be a member");
        CommGroup {
            comm,
            group,
            rank_in_group,
        }
    }

    /// The underlying group.
    pub fn group(&self) -> &Group {
        &self.group
    }
}

/// Layer math has no error channel: a failed collective unwinds the rank
/// with the [`ucp_collectives::CommError`] itself as the panic payload, so
/// the cluster can tell a peer-failure casualty from a root cause.
impl GroupOps for CommGroup<'_> {
    fn size(&self) -> usize {
        self.group.size()
    }

    fn rank(&self) -> usize {
        self.rank_in_group
    }

    fn all_reduce_sum(&self, t: &Tensor) -> Tensor {
        if self.group.size() == 1 {
            return t.clone();
        }
        self.comm
            .all_reduce_sum(&self.group, t)
            .unwrap_or_else(|e| std::panic::panic_any(e))
    }

    fn all_gather_cat(&self, t: &Tensor, dim: usize) -> Tensor {
        if self.group.size() == 1 {
            return t.clone();
        }
        let all = self
            .comm
            .all_gather_tensors(&self.group, t)
            .unwrap_or_else(|e| std::panic::panic_any(e));
        let refs: Vec<&Tensor> = all.iter().collect();
        Tensor::concat(&refs, dim).expect("uniform gather shapes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucp_collectives::Cluster;

    #[test]
    fn comm_group_collectives() {
        let out = Cluster::run(2, |comm| {
            let g = CommGroup::new(comm, vec![0, 1]);
            assert_eq!(g.size(), 2);
            assert_eq!(g.rank(), comm.rank());
            let t = Tensor::full([2], comm.rank() as f32 + 1.0);
            let sum = g.all_reduce_sum(&t);
            let cat = g.all_gather_cat(&t, 0);
            (sum, cat)
        });
        assert_eq!(out[0].0.as_slice(), &[3.0, 3.0]);
        assert_eq!(out[0].1.as_slice(), &[1.0, 1.0, 2.0, 2.0]);
        assert_eq!(out[1].1.as_slice(), &[1.0, 1.0, 2.0, 2.0]);
    }
}
