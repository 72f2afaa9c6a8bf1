package dessim

// Machine parameterizes the modeled machine. All costs are in cycles of the
// modeled core; ClockGHz converts modeled cycles to nanoseconds.
type Machine struct {
	Name     string
	ClockGHz float64

	// Lock-based construct costs (Splash-3 style).
	LockUncontended  float64 // fast-path acquire+release
	LockHandoff      float64 // extra cost when the previous holder was another core
	CondvarWakeup    float64 // waking one barrier/flag sleeper
	BarrierMutexBase float64 // bookkeeping per barrier episode

	// Atomic construct costs (Splash-4 style).
	AtomicRMW     float64 // one fetch-and-add / exchange
	CASRetry      float64 // one failed CAS round trip
	SpinCheck     float64 // one spin-loop poll of a line in cache
	BarrierAtomic float64 // arrival bookkeeping per episode
	CoherenceMiss float64 // pulling a contended line from a remote cache
}

// IceLakeLike returns parameters loosely shaped after a simulated Intel Ice
// Lake server (3 GHz, ~70-cycle remote-cache transfers): the role the gem5
// configuration plays in the paper.
func IceLakeLike() Machine {
	return Machine{
		Name:     "icelake-sim",
		ClockGHz: 3.0,

		LockUncontended:  40,
		LockHandoff:      180,
		CondvarWakeup:    900,
		BarrierMutexBase: 120,

		AtomicRMW:     25,
		CASRetry:      45,
		SpinCheck:     4,
		BarrierAtomic: 30,
		CoherenceMiss: 70,
	}
}

// EpycLike returns parameters loosely shaped after an AMD EPYC 7002 (Rome):
// more cores per package, costlier cross-CCX coherence, which is why the
// paper's measured improvement is larger on EPYC than on the simulated Ice
// Lake.
func EpycLike() Machine {
	return Machine{
		Name:     "epyc-rome",
		ClockGHz: 2.5,

		LockUncontended:  45,
		LockHandoff:      350,
		CondvarWakeup:    1800,
		BarrierMutexBase: 150,

		AtomicRMW:     30,
		CASRetry:      60,
		SpinCheck:     4,
		BarrierAtomic: 35,
		CoherenceMiss: 100,
	}
}
