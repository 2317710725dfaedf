package cache

// ECB computes the evicting cache blocks of a (preempting) task: the union
// of all memory lines any of its basic blocks may access. When that task
// runs during a preemption, these are the only lines it can bring into the
// cache, hence the only sets in which it can evict the preempted task's
// useful blocks.
func ECB(acc AccessMap) LineSet {
	return acc.Lines()
}
