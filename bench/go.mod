module resilientft/bench

go 1.22

require resilientft v0.0.0

replace resilientft => ../
