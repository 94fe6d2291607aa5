package machine

import "testing"

// BenchmarkPingPong measures round-trip message latency between two
// simulated processors.
func BenchmarkPingPong(b *testing.B) {
	m := MustNew(2)
	payload := make([]float64, 64)
	b.ResetTimer()
	m.Run(func(p *Proc) {
		other := 1 - p.Rank()
		for i := 0; i < b.N; i++ {
			if p.Rank() == 0 {
				p.Send(other, "ping", payload)
				p.Recv(other, "pong")
			} else {
				msg := p.Recv(other, "ping")
				p.Send(other, "pong", msg.Data)
			}
		}
	})
}

// BenchmarkBarrier measures one full-machine barrier.
func BenchmarkBarrier(b *testing.B) {
	m := MustNew(8)
	b.ResetTimer()
	m.Run(func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Barrier()
		}
	})
}

// BenchmarkAllReduce measures an 8-processor reduction + broadcast.
func BenchmarkAllReduce(b *testing.B) {
	m := MustNew(8)
	b.ResetTimer()
	m.Run(func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.AllReduce(float64(p.Rank()), Sum)
		}
	})
}
