//! The one place the simulator starts threads.
//!
//! Every parallel stage — GEMM row bands, analog site bands, the
//! work-stealing pool's workers, accuracy shards — hands its fixed list of
//! work items to [`par_map`], so spawning, joining and panic propagation
//! live in one function.

/// Runs `f(index, item)` for every item, each on its own scoped thread
/// except the last, which runs on the calling thread, and returns the
/// results in item order.
///
/// A single item therefore runs inline with no thread started, through the
/// same code path as a multi-item call. Callers choose the split; the
/// result order never depends on which thread finished first.
///
/// # Panics
///
/// Re-raises a panic from any `f` call once every thread has joined.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let mut items = items;
    let Some(last) = items.pop() else {
        return Vec::new();
    };
    let last_index = items.len();
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .into_iter()
            .enumerate()
            .map(|(i, item)| scope.spawn(move || f(i, item)))
            .collect();
        let tail = f(last_index, last);
        let mut results: Vec<R> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect();
        results.push(tail);
        results
    })
}

#[cfg(test)]
mod tests {
    use super::par_map;

    #[test]
    fn results_come_back_in_item_order() {
        for n in [0usize, 1, 2, 7] {
            let items: Vec<usize> = (0..n).map(|i| i * 10).collect();
            let got = par_map(items, |i, item| (i, item + 1));
            let want: Vec<(usize, usize)> = (0..n).map(|i| (i, i * 10 + 1)).collect();
            assert_eq!(got, want, "{n} items");
        }
    }

    #[test]
    fn single_item_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let got = par_map(vec![()], |_, ()| std::thread::current().id());
        assert_eq!(got, vec![caller]);
    }

    #[test]
    #[should_panic(expected = "item 1 failed")]
    fn a_panicking_item_propagates() {
        par_map(vec![0u8, 1, 2], |i, _| assert_ne!(i, 1, "item 1 failed"));
    }
}
