# Build image for the fairsfe binaries (fairbench, fairbenchd, fairparty).
#
#   docker build -t fairsfe .
#   docker run --rm fairsfe fairbench --list
#   docker compose up            # 3-party auction, one container per party
#
# Two stages: the toolchain stage compiles everything; the runtime stage
# carries only the binaries and the scripts the deployment uses.
FROM debian:bookworm-slim AS build
RUN apt-get update && apt-get install -y --no-install-recommends \
        g++ cmake make python3 ca-certificates libgtest-dev libbenchmark-dev && \
    rm -rf /var/lib/apt/lists/*
WORKDIR /src
COPY . .
RUN cmake -B build -S . -DCMAKE_BUILD_TYPE=Release && \
    cmake --build build -j "$(nproc)" --target fairbench fairbenchd fairparty

FROM debian:bookworm-slim
RUN apt-get update && apt-get install -y --no-install-recommends \
        libstdc++6 python3 && \
    rm -rf /var/lib/apt/lists/*
COPY --from=build /src/build/fairbench /src/build/fairbenchd /src/build/fairparty /usr/local/bin/
COPY --from=build /src/scripts/loadtest.py /usr/local/bin/loadtest.py
# Default: the estimation daemon on all interfaces (compose overrides the
# command per service; fairparty containers pass --peers/--listen instead).
EXPOSE 9600
CMD ["fairbenchd", "--host", "0.0.0.0", "--port", "9600"]
