module pandas/bench

go 1.22

require pandas v0.0.0

replace pandas => ../
